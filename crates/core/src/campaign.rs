//! Fault-injection campaigns: DelayAVF sweeps and particle-strike sAVF.
//!
//! # Parallel engine: one queue of whole units
//!
//! Every injection is independent given the golden trace, so each campaign
//! cuts its work into whole *units* — one trace cycle (one latch boundary)
//! each, or one adaptive round's `(round, cycle)` group — and runs them on
//! [`std::thread::scope`] workers that pull unit indices from one shared
//! atomic cursor. The queue is ordered longest-expected-first: a unit's
//! cost estimate is the trace cycles left after its cycle times its sites
//! (an early error can replay to the end of the program), ties by unit
//! index, so the long units start first and the short ones fill in
//! around them instead of leaving a worker idle behind a slow fixed
//! chunk. Workers share the circuit, topology, timing model and golden run
//! read-only (hence the `Send + Sync` supertrait on [`Environment`]) —
//! including the trace's lazily filled golden settle cache — and each
//! keeps one private [`Injector`] for every unit it pulls, whose
//! fan-in/replay caches and cycle reconstruction are per-run mutable
//! state.
//!
//! **Determinism:** parallel results are bit-for-bit identical to serial
//! for any thread count and any schedule. Results are stored per unit
//! index and merged in unit order (rows, [`InjectorStats`], records, and
//! the adaptive plan's per-site tallies), all counters are integers merged
//! by addition, and every cache-shareable replay of a unit is keyed by the
//! unit's own latch boundary, so no cache entry carried in a worker's
//! injector from one unit to the next can serve another unit: even the
//! cache-hit counters do not depend on which worker ran which unit, or
//! when. Checkpoints are keyed by unit, so their content does not depend
//! on the schedule either.
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
//! counters in [`InjectorStats`] merge schedule-invariantly. The per-bit
//! campaign reports and checkpoints *bits*, but queues its replays by
//! cycle — each cycle batches every pending bit — and then tallies each
//! bit from the per-cycle classes in bit order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use delayavf_netlist::{Circuit, DffId, EdgeId, Topology};
use delayavf_sim::{Environment, MAX_LANES, MAX_TIMING_LANES};
use delayavf_timing::{Picos, TimingModel};

use crate::checkpoint::{CheckpointSpec, CheckpointStore, Fingerprint, Tokens};
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
    /// semi-formal masking discharge (the default). Results are
    /// bit-for-bit identical either way; `false` runs the exact per-site
    /// baseline (the `--no-collapse` escape hatch).
    pub collapse: bool,
    /// Target Wilson half-width for adaptive stratified sampling. `None`
    /// (the default) runs the legacy uniform path byte-identically;
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
    /// (`None` = uniform legacy path).
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
    /// (`None` = uniform legacy path).
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
    circuit: &'g Circuit,
    topo: &'g Topology,
    timing: &'g TimingModel,
    golden: &'g GoldenRun<E>,
    opts: &ReplayOptions,
) -> Injector<'g, E> {
    let mut injector = Injector::new(circuit, topo, timing, golden, opts.due_slack);
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
#[allow(clippy::too_many_arguments)]
fn campaign_fingerprint<E: Environment + Clone>(
    kind: &str,
    circuit: &Circuit,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    cycles: &[u64],
    items: &[usize],
    fractions: &[f64],
    due_slack: u64,
    orace: bool,
) -> u64 {
    let mut f = Fingerprint::new();
    f.write_bytes(kind.as_bytes());
    f.write_usize(circuit.num_dffs());
    f.write_u64(timing.clock_period());
    let trace = &golden.trace;
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
fn knob_hash(
    lanes: usize,
    timing_lanes: usize,
    collapse: bool,
    ci_target: Option<f64>,
    strata: usize,
    sample_seed: u64,
) -> u64 {
    let mut f = Fingerprint::new();
    f.write_usize(lanes);
    f.write_usize(timing_lanes);
    f.write_bool(collapse);
    match ci_target {
        None => f.write_bool(false),
        Some(target) => {
            f.write_bool(true);
            f.write_f64(target);
            f.write_usize(strata);
            f.write_u64(sample_seed);
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

    /// Adds `units` to the campaign's scheduled total (all units up front
    /// for uniform campaigns, each round's units for adaptive ones).
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

    /// Emits the worker's phase-timer totals (once, when it runs out of
    /// units).
    fn finish(self) {
        if S::ENABLED {
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
// Checkpoint unit-payload codecs. One line per completed unit; whitespace
// tokens only (see the checkpoint module docs for the file format).
// ---------------------------------------------------------------------------

fn encode_class(class: FailureClass) -> char {
    match class {
        FailureClass::Masked => 'M',
        FailureClass::Sdc => 'S',
        FailureClass::Due => 'D',
    }
}

fn decode_class(tok: char) -> Result<FailureClass, String> {
    match tok {
        'M' => Ok(FailureClass::Masked),
        'S' => Ok(FailureClass::Sdc),
        'D' => Ok(FailureClass::Due),
        other => Err(format!(
            "checkpoint parse error: bad failure class `{other}`"
        )),
    }
}

fn encode_stats(out: &mut String, s: &InjectorStats) {
    out.push_str(" stats");
    for v in s.values() {
        let _ = write!(out, " {v}");
    }
}

fn decode_stats(t: &mut Tokens<'_>) -> Result<InjectorStats, String> {
    t.expect("stats")?;
    let mut values = [0; InjectorStats::COUNT];
    for (v, name) in values.iter_mut().zip(InjectorStats::NAMES) {
        *v = t.next_u64(name)?;
    }
    Ok(InjectorStats::from_values(values))
}

fn encode_failures(out: &mut String, entries: &[(Vec<DffId>, FailureClass)]) {
    let _ = write!(out, " fc {}", entries.len());
    for (set, class) in entries {
        let _ = write!(out, " {} {}", encode_class(*class), set.len());
        for d in set {
            let _ = write!(out, " {}", d.index());
        }
    }
}

fn decode_failures(t: &mut Tokens<'_>) -> Result<Vec<(Vec<DffId>, FailureClass)>, String> {
    t.expect("fc")?;
    let k = t.next_usize("failure-cache entry count")?;
    let mut entries = Vec::with_capacity(k);
    for _ in 0..k {
        let class_tok = t.next_str("failure class")?;
        let mut chars = class_tok.chars();
        let class = decode_class(chars.next().unwrap_or(' '))?;
        if chars.next().is_some() {
            return Err(format!(
                "checkpoint parse error: bad failure class `{class_tok}`"
            ));
        }
        let len = t.next_usize("flip-set length")?;
        let mut set = Vec::with_capacity(len);
        for _ in 0..len {
            set.push(DffId::from_index(t.next_usize("flip-set dff")?));
        }
        entries.push((set, class));
    }
    Ok(entries)
}

fn encode_rows(out: &mut String, rows: &[DelayAvfResult]) {
    let _ = write!(out, "rows {}", rows.len());
    for r in rows {
        let _ = write!(
            out,
            " {} {} {} {} {} {} {}",
            r.injections,
            r.static_hits,
            r.dynamic_hits,
            r.delay_ace_hits,
            r.sdc_hits,
            r.due_hits,
            r.multi_bit_hits
        );
        if let Some(o) = &r.orace {
            let _ = write!(out, " {} {} {}", o.or_hits, o.interference, o.compounding);
        }
    }
}

fn decode_rows(t: &mut Tokens<'_>, config: &CampaignConfig) -> Result<Vec<DelayAvfResult>, String> {
    t.expect("rows")?;
    let n = t.next_usize("row count")?;
    if n != config.delay_fractions.len() {
        return Err(format!(
            "checkpoint parse error: {n} rows != {} configured fractions",
            config.delay_fractions.len()
        ));
    }
    let mut rows = empty_rows(config);
    for row in &mut rows {
        row.injections = t.next_usize("injections")?;
        row.static_hits = t.next_usize("static_hits")?;
        row.dynamic_hits = t.next_usize("dynamic_hits")?;
        row.delay_ace_hits = t.next_usize("delay_ace_hits")?;
        row.sdc_hits = t.next_usize("sdc_hits")?;
        row.due_hits = t.next_usize("due_hits")?;
        row.multi_bit_hits = t.next_usize("multi_bit_hits")?;
        if let Some(o) = row.orace.as_mut() {
            o.or_hits = t.next_usize("or_hits")?;
            o.interference = t.next_usize("interference")?;
            o.compounding = t.next_usize("compounding")?;
        }
    }
    Ok(rows)
}

fn encode_delay_unit(
    rows: &[DelayAvfResult],
    stats: &InjectorStats,
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = String::new();
    encode_rows(&mut out, rows);
    encode_stats(&mut out, stats);
    encode_failures(&mut out, failures);
    out
}

type DelayUnit = (
    Vec<DelayAvfResult>,
    InjectorStats,
    Vec<(Vec<DffId>, FailureClass)>,
);

fn decode_delay_unit(payload: &str, config: &CampaignConfig) -> Result<DelayUnit, String> {
    let mut t = Tokens::new(payload);
    let rows = decode_rows(&mut t, config)?;
    let stats = decode_stats(&mut t)?;
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((rows, stats, failures))
}

/// Adaptive sweep units additionally persist the per-site visibility
/// flags (fraction-major over the unit's selected edges, `1` = visible)
/// the plan's stratum tallies are rebuilt from on resume.
fn encode_adaptive_sweep_unit(
    rows: &[DelayAvfResult],
    vis: &[bool],
    stats: &InjectorStats,
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = String::new();
    encode_rows(&mut out, rows);
    out.push_str(" vis .");
    out.extend(vis.iter().map(|&v| if v { '1' } else { '0' }));
    encode_stats(&mut out, stats);
    encode_failures(&mut out, failures);
    out
}

type AdaptiveSweepUnit = (
    Vec<DelayAvfResult>,
    Vec<bool>,
    InjectorStats,
    Vec<(Vec<DffId>, FailureClass)>,
);

fn decode_adaptive_sweep_unit(
    payload: &str,
    config: &CampaignConfig,
    expected_sites: usize,
) -> Result<AdaptiveSweepUnit, String> {
    let mut t = Tokens::new(payload);
    let rows = decode_rows(&mut t, config)?;
    t.expect("vis")?;
    let tok = t.next_str("visibility string")?;
    let body = tok
        .strip_prefix('.')
        .ok_or_else(|| format!("checkpoint parse error: bad visibility string `{tok}`"))?;
    let vis: Vec<bool> = body
        .chars()
        .map(|c| match c {
            '1' => Ok(true),
            '0' => Ok(false),
            other => Err(format!(
                "checkpoint parse error: bad visibility flag `{other}`"
            )),
        })
        .collect::<Result<_, _>>()?;
    if vis.len() != expected_sites * config.delay_fractions.len() {
        return Err(format!(
            "checkpoint parse error: {} visibility flags != {} sites × {} fractions",
            vis.len(),
            expected_sites,
            config.delay_fractions.len()
        ));
    }
    let stats = decode_stats(&mut t)?;
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((rows, vis, stats, failures))
}

fn encode_savf_unit(
    result: &SavfResult,
    stats: &InjectorStats,
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = format!("{} {}", result.injections, result.ace_hits);
    encode_stats(&mut out, stats);
    encode_failures(&mut out, failures);
    out
}

type SavfUnit = (SavfResult, InjectorStats, Vec<(Vec<DffId>, FailureClass)>);

fn decode_savf_unit(payload: &str) -> Result<SavfUnit, String> {
    let mut t = Tokens::new(payload);
    let result = SavfResult {
        injections: t.next_usize("injections")?,
        ace_hits: t.next_usize("ace_hits")?,
    };
    let stats = decode_stats(&mut t)?;
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((result, stats, failures))
}

fn encode_records_unit(
    records: &[InjectionRecord],
    failures: &[(Vec<DffId>, FailureClass)],
) -> String {
    let mut out = String::new();
    let _ = write!(out, "rec {}", records.len());
    for r in records {
        let _ = write!(
            out,
            " {} {} {} {}",
            r.edge.index(),
            r.outcome.statically_reachable,
            encode_class(r.outcome.class),
            r.outcome.dynamic_set.len()
        );
        for d in &r.outcome.dynamic_set {
            let _ = write!(out, " {}", d.index());
        }
    }
    encode_failures(&mut out, failures);
    out
}

type RecordsUnit = (Vec<InjectionRecord>, Vec<(Vec<DffId>, FailureClass)>);

fn decode_records_unit(payload: &str, cycle: u64) -> Result<RecordsUnit, String> {
    let mut t = Tokens::new(payload);
    t.expect("rec")?;
    let m = t.next_usize("record count")?;
    let mut records = Vec::with_capacity(m);
    for _ in 0..m {
        let edge = EdgeId::from_index(t.next_usize("record edge")?);
        let statically_reachable = t.next_usize("statically reachable count")?;
        let class_tok = t.next_str("record class")?;
        let class = decode_class(class_tok.chars().next().unwrap_or(' '))?;
        let len = t.next_usize("dynamic-set length")?;
        let mut dynamic_set = Vec::with_capacity(len);
        for _ in 0..len {
            dynamic_set.push(DffId::from_index(t.next_usize("dynamic-set dff")?));
        }
        records.push(InjectionRecord {
            cycle,
            edge,
            outcome: InjectionOutcome {
                statically_reachable,
                dynamic_set,
                visible: class.is_visible(),
                class,
            },
        });
    }
    let failures = decode_failures(&mut t)?;
    if !t.finished() {
        return Err("checkpoint parse error: trailing payload tokens".into());
    }
    Ok((records, failures))
}

/// Per-bit payloads store one classification per character (each cycle's
/// for a bit, or each bit's at one cycle for the adaptive campaign), with a
/// leading `.` so an empty list still yields a token.
fn encode_classes(classes: &[FailureClass]) -> String {
    let mut out = String::from("cls .");
    out.extend(classes.iter().map(|&c| encode_class(c)));
    out
}

fn decode_per_bit_unit(payload: &str, expected: usize) -> Result<Vec<FailureClass>, String> {
    let mut t = Tokens::new(payload);
    t.expect("cls")?;
    let tok = t.next_str("class string")?;
    let body = tok
        .strip_prefix('.')
        .ok_or_else(|| format!("checkpoint parse error: bad class string `{tok}`"))?;
    let classes: Vec<FailureClass> = body.chars().map(decode_class).collect::<Result<_, _>>()?;
    if classes.len() != expected || !t.finished() {
        return Err(format!(
            "checkpoint parse error: {} classes != {expected} expected",
            classes.len(),
        ));
    }
    Ok(classes)
}

fn merge_rows(into: &mut [DelayAvfResult], from: &[DelayAvfResult]) {
    for (row, part) in into.iter_mut().zip(from) {
        row.merge(part);
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

/// One DelayAVF work unit: the full fraction sweep at a single trace
/// cycle. Cycle-outer iteration makes every unit's contribution (row
/// deltas, counter deltas, the failure-cache entries at boundary
/// `cycle + 1`) independent of which other units ran — the invariant the
/// checkpoint layer builds on — and lets all fractions share one golden
/// waveform build and one cycle reconstruction.
fn delay_sweep_unit<E: Environment + Clone>(
    injector: &mut Injector<'_, E>,
    timing: &TimingModel,
    edges: &[EdgeId],
    config: &CampaignConfig,
    cycle: u64,
    time_phases: bool,
    phases: &mut PhaseTotals,
) -> Vec<DelayAvfResult> {
    delay_sweep_unit_vis(injector, timing, edges, config, cycle, time_phases, phases).0
}

/// [`delay_sweep_unit`] additionally returning each injection's
/// program-visibility flag in tally order (fraction-major, edge-minor) —
/// the per-site signal the adaptive sampler's stratum tallies consume.
/// The shared body keeps the two paths' accounting identical by
/// construction.
fn delay_sweep_unit_vis<E: Environment + Clone>(
    injector: &mut Injector<'_, E>,
    timing: &TimingModel,
    edges: &[EdgeId],
    config: &CampaignConfig,
    cycle: u64,
    time_phases: bool,
    phases: &mut PhaseTotals,
) -> (Vec<DelayAvfResult>, Vec<bool>) {
    let mut vis = Vec::with_capacity(config.delay_fractions.len() * edges.len());
    let mut rows = empty_rows(config);
    // Golden-settle phase: reconstruct the cycle context once for every
    // fraction and edge injected here (touches no counters, so timing it
    // separately cannot perturb the deterministic report path).
    timed(time_phases, &mut phases.golden_settle_us, || {
        injector.warm_cycle_data(cycle)
    });
    if edges.is_empty() {
        return (rows, vis);
    }
    // Phase 1 (timing-aware): one lane-packing pass over the whole cycle.
    // Every fraction's (edge, extra) pairs are handed to the batch carver
    // together, fraction-major, so the per-pair filter decisions and the
    // scalar fallback run in exactly the per-fraction loop's order while
    // survivors from *different* fractions share lanes whenever their
    // edges don't conflict (the carver keeps same-edge/different-extra
    // pairs apart, which the packed engine would retire anyway).
    let pairs: Vec<(EdgeId, Picos)> = config
        .delay_fractions
        .iter()
        .flat_map(|&fraction| {
            let extra = fraction_to_picos(timing, fraction);
            edges.iter().map(move |&edge| (edge, extra))
        })
        .collect();
    let mut parts: Vec<(usize, Vec<DffId>)> =
        timed(time_phases, &mut phases.timing_step_us, || {
            injector.dynamically_reachable_batch(cycle, &pairs)
        });
    for (fi, parts) in parts.chunks_mut(edges.len()).enumerate() {
        timed(time_phases, &mut phases.replay_us, || {
            // Phase 2: batch the whole boundary's replays — group sets and,
            // for ORACE, the individual bits they contain.
            injector.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
            if config.compute_orace {
                injector.prefill_failures(
                    cycle + 1,
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
                    let or = injector.or_ace(cycle + 1, &outcome.dynamic_set);
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
    (rows, vis)
}

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
/// periodically snapshots completed cycle units and/or resumes from a
/// previous snapshot. Resumed runs produce byte-identical reports and
/// identical merged stats to uninterrupted ones for any
/// `threads × lanes × timing_lanes` combination (the knob hash rejects
/// resumes across `lanes`/`timing_lanes`/`collapse` changes, which would
/// silently break the *stats* identity; `threads` may change freely).
///
/// # Errors
///
/// Fails on checkpoint I/O errors and on resuming against a mismatched or
/// corrupt checkpoint file (`checkpoint mismatch` / `checkpoint parse
/// error`). Never fails when `ctx.checkpoint` is `None`.
pub fn delay_avf_campaign_observed<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
    ctx: &RunContext<'_, S>,
) -> Result<(Vec<DelayAvfResult>, InjectorStats), String> {
    if config.ci_target.is_some() {
        return delay_avf_campaign_adaptive(circuit, topo, timing, golden, edges, config, ctx);
    }
    let cycles = valid_cycles(golden);
    let threads = resolve_threads(config.threads, cycles.len());
    let items: Vec<usize> = edges.iter().map(|e| e.index()).collect();
    let fingerprint = campaign_fingerprint(
        "delay_sweep",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &config.delay_fractions,
        config.due_slack,
        config.compute_orace,
    );
    let knobs = knob_hash(
        config.lanes,
        config.timing_lanes,
        config.collapse,
        config.ci_target,
        config.strata,
        config.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "delay_sweep", fingerprint, knobs)?;
    let opts = config.replay_options();
    let costs: Vec<u64> = cycles
        .iter()
        .map(|&cycle| unit_cost(golden, cycle, edges.len()))
        .collect();
    observe_campaign(
        ctx,
        &setup,
        "delay_sweep",
        cycles.len(),
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            progress.schedule(cycles.len());
            let units = run_queue(
                threads,
                &cycles,
                &queue_order(&costs),
                |id| Worker {
                    injector: worker_injector(circuit, topo, timing, golden, &opts),
                    obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                },
                |w: &mut Worker<'_, '_, E, S>, &cycle| {
                    if let Some(payload) = resumed.get(&cycle) {
                        let (unit_rows, unit_stats, failures) = decode_delay_unit(payload, config)?;
                        w.injector.preload_failures(cycle + 1, failures);
                        w.obs.unit_done(cycle, None, Some(&unit_stats))?;
                        return Ok((unit_rows, unit_stats));
                    }
                    let before = w.injector.stats;
                    let unit_rows = delay_sweep_unit(
                        &mut w.injector,
                        timing,
                        edges,
                        config,
                        cycle,
                        S::ENABLED,
                        &mut w.obs.phases,
                    );
                    let delta = w.injector.stats.delta_since(&before);
                    let payload = store.is_some().then(|| {
                        encode_delay_unit(
                            &unit_rows,
                            &delta,
                            &w.injector.snapshot_failures(cycle + 1),
                        )
                    });
                    w.obs.unit_done(cycle, payload, Some(&delta))?;
                    Ok((unit_rows, delta))
                },
                |w| w.obs.finish(),
            )?;
            let mut rows = empty_rows(config);
            let mut stats = InjectorStats::default();
            for (unit_rows, unit_stats) in &units {
                merge_rows(&mut rows, unit_rows);
                stats.merge(unit_stats);
            }
            Ok((rows, stats))
        },
    )
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
/// semantics (work units are trace cycles here too, classified at
/// boundary `cycle` per the strike-model convention).
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
    if opts.ci_target.is_some() {
        return savf_campaign_adaptive(circuit, topo, timing, golden, dffs, opts, ctx);
    }
    let cycles = valid_cycles(golden);
    let threads = resolve_threads(opts.threads, cycles.len());
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "savf",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "savf", fingerprint, knobs)?;
    let costs: Vec<u64> = cycles
        .iter()
        .map(|&cycle| unit_cost(golden, cycle, dffs.len()))
        .collect();
    observe_campaign(ctx, &setup, "savf", cycles.len(), threads, |progress| {
        let store = setup.store.as_ref();
        let resumed = &setup.resumed;
        progress.schedule(cycles.len());
        let units = run_queue(
            threads,
            &cycles,
            &queue_order(&costs),
            |id| Worker {
                injector: worker_injector(circuit, topo, timing, golden, &opts),
                obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
            },
            |w: &mut Worker<'_, '_, E, S>, &cycle| savf_unit(w, dffs, cycle, resumed, store),
            |w| w.obs.finish(),
        )?;
        let mut result = SavfResult::default();
        let mut stats = InjectorStats::default();
        for (unit, unit_stats) in &units {
            result.merge(unit);
            stats.merge(unit_stats);
        }
        Ok((result, stats))
    })
}

/// One particle-strike unit: a single bit flip in each of `dffs` at
/// `cycle`, classified at boundary `cycle` — or the unit restored from a
/// resumed checkpoint. Shared by the uniform and adaptive sAVF campaigns.
fn savf_unit<E: Environment + Clone, S: TelemetrySink>(
    w: &mut Worker<'_, '_, E, S>,
    dffs: &[DffId],
    cycle: u64,
    resumed: &BTreeMap<u64, String>,
    store: Option<&Mutex<CheckpointStore>>,
) -> Result<(SavfResult, InjectorStats), String> {
    if let Some(payload) = resumed.get(&cycle) {
        let (unit, unit_stats, failures) = decode_savf_unit(payload)?;
        w.injector.preload_failures(cycle, failures);
        w.obs.unit_done(cycle, None, Some(&unit_stats))?;
        return Ok((unit, unit_stats));
    }
    let before = w.injector.stats;
    let mut unit = SavfResult::default();
    let injector = &mut w.injector;
    timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
        for &dff in dffs {
            unit.injections += 1;
            if injector.bit_ace(cycle, dff) {
                unit.ace_hits += 1;
            }
        }
    });
    let delta = w.injector.stats.delta_since(&before);
    let payload = store
        .is_some()
        .then(|| encode_savf_unit(&unit, &delta, &w.injector.snapshot_failures(cycle)));
    w.obs.unit_done(cycle, payload, Some(&delta))?;
    Ok((unit, delta))
}

/// Like [`delay_avf_campaign`] for a **single** delay fraction, but also
/// returning every injection's record (cycle, edge, dynamic set,
/// visibility) for downstream analyses such as Razor protection planning
/// ([`crate::razor`]). Records come back in (cycle, edge) sampling order
/// regardless of `opts.threads`.
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
/// semantics. Resumed cycle units replay their serialized records (and the
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
    if opts.ci_target.is_some() {
        return delay_avf_campaign_records_adaptive(
            circuit, topo, timing, golden, edges, fraction, opts, ctx,
        );
    }
    let cycles = valid_cycles(golden);
    let threads = resolve_threads(opts.threads, cycles.len());
    let extra = fraction_to_picos(timing, fraction);
    let items: Vec<usize> = edges.iter().map(|e| e.index()).collect();
    let fingerprint = campaign_fingerprint(
        "delay_records",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[fraction],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "delay_records", fingerprint, knobs)?;
    let costs: Vec<u64> = cycles
        .iter()
        .map(|&cycle| unit_cost(golden, cycle, edges.len()))
        .collect();
    observe_campaign(
        ctx,
        &setup,
        "delay_records",
        cycles.len(),
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            progress.schedule(cycles.len());
            let units = run_queue(
                threads,
                &cycles,
                &queue_order(&costs),
                |id| Worker {
                    injector: worker_injector(circuit, topo, timing, golden, &opts),
                    obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                },
                |w: &mut Worker<'_, '_, E, S>, &cycle| {
                    records_unit(w, edges, extra, cycle, resumed, store)
                },
                |w| w.obs.finish(),
            )?;
            let mut row = DelayAvfResult {
                delay_fraction: fraction,
                ..DelayAvfResult::default()
            };
            let records: Vec<InjectionRecord> = units.into_iter().flatten().collect();
            for record in &records {
                tally(&mut row, &record.outcome);
            }
            Ok((row, records))
        },
    )
}

/// One record-keeping unit: every edge of `edges` at `cycle` under one
/// extra delay, one record per edge in edge order — or the unit's records
/// restored from a resumed checkpoint. Shared by the uniform and adaptive
/// record campaigns.
fn records_unit<E: Environment + Clone, S: TelemetrySink>(
    w: &mut Worker<'_, '_, E, S>,
    edges: &[EdgeId],
    extra: Picos,
    cycle: u64,
    resumed: &BTreeMap<u64, String>,
    store: Option<&Mutex<CheckpointStore>>,
) -> Result<Vec<InjectionRecord>, String> {
    if let Some(payload) = resumed.get(&cycle) {
        let (records, failures) = decode_records_unit(payload, cycle)?;
        w.injector.preload_failures(cycle + 1, failures);
        w.obs.unit_done(cycle, None, None)?;
        return Ok(records);
    }
    // Same two-phase structure as the sweep: collect the cycle's dynamic
    // sets, batch their replays, then record in edge order.
    let injector = &mut w.injector;
    let phases = &mut w.obs.phases;
    timed(S::ENABLED, &mut phases.golden_settle_us, || {
        injector.warm_cycle_data(cycle)
    });
    let pairs: Vec<(EdgeId, Picos)> = edges.iter().map(|&edge| (edge, extra)).collect();
    let parts: Vec<(usize, Vec<DffId>)> = timed(S::ENABLED, &mut phases.timing_step_us, || {
        injector.dynamically_reachable_batch(cycle, &pairs)
    });
    let records = timed(S::ENABLED, &mut phases.replay_us, || {
        injector.prefill_failures(cycle + 1, parts.iter().map(|(_, set)| set.clone()));
        edges
            .iter()
            .zip(parts)
            .map(
                |(&edge, (statically_reachable, dynamic_set))| InjectionRecord {
                    cycle,
                    edge,
                    outcome: injector.classify_injection(cycle, statically_reachable, dynamic_set),
                },
            )
            .collect::<Vec<_>>()
    });
    let payload = store
        .is_some()
        .then(|| encode_records_unit(&records, &w.injector.snapshot_failures(cycle + 1)));
    w.obs.unit_done(cycle, payload, None)?;
    Ok(records)
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

/// [`savf_per_bit_campaign`] under a [`RunContext`]. Checkpoint units are
/// *bits*: each stores its per-cycle classifications, so a resumed bit
/// costs no replays. The replays themselves are queued by cycle, each
/// cycle batching every bit not restored from the checkpoint; the bits are
/// then tallied and recorded in `dffs` order once every cycle has run.
/// (Restored bits change which scenarios a cycle's batch carries —
/// harmless, because per-bit results are batch-shape invariant and this
/// campaign exposes no stats.)
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
    if opts.ci_target.is_some() {
        return savf_per_bit_campaign_adaptive(circuit, topo, timing, golden, dffs, opts, ctx);
    }
    let cycles = valid_cycles(golden);
    let threads = resolve_threads(opts.threads, cycles.len());
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "savf_per_bit",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "savf_per_bit", fingerprint, knobs)?;
    observe_campaign(
        ctx,
        &setup,
        "savf_per_bit",
        dffs.len(),
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            // Resumed bits carry their per-cycle classes; only the rest replay.
            let restored: Vec<Option<Vec<FailureClass>>> = dffs
                .iter()
                .map(|d| {
                    resumed
                        .get(&(d.index() as u64))
                        .map(|payload| decode_per_bit_unit(payload, cycles.len()))
                        .transpose()
                })
                .collect::<Result<_, _>>()?;
            let pending: Vec<DffId> = dffs
                .iter()
                .zip(&restored)
                .filter(|(_, r)| r.is_none())
                .map(|(&d, _)| d)
                .collect();
            // Replay phase: the queue hands out whole cycles, so each boundary
            // batches every pending bit's replay together.
            let costs: Vec<u64> = cycles
                .iter()
                .map(|&cycle| unit_cost(golden, cycle, pending.len()))
                .collect();
            let by_cycle: Vec<Vec<FailureClass>> = run_queue(
                threads,
                &cycles,
                &queue_order(&costs),
                |id| Worker {
                    injector: worker_injector(circuit, topo, timing, golden, &opts),
                    obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                },
                |w: &mut Worker<'_, '_, E, S>, &cycle| {
                    let injector = &mut w.injector;
                    Ok(timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
                        strike_classes(injector, &pending, cycle)
                    }))
                },
                |w| w.obs.finish(),
            )?;
            // Tally phase: one unit per bit, in bit order.
            progress.schedule(dffs.len());
            let mut obs = WorkerObserver::new(ctx.telemetry, store, progress, 0);
            let mut fresh = 0;
            let mut out = Vec::with_capacity(dffs.len());
            for (&dff, restored) in dffs.iter().zip(restored) {
                let (classes, payload) = match restored {
                    Some(classes) => (classes, None),
                    None => {
                        let classes: Vec<FailureClass> =
                            by_cycle.iter().map(|row| row[fresh]).collect();
                        fresh += 1;
                        let payload = store.is_some().then(|| encode_classes(&classes));
                        (classes, payload)
                    }
                };
                out.push((
                    dff,
                    SavfResult {
                        injections: classes.len(),
                        ace_hits: classes.iter().filter(|c| c.is_visible()).count(),
                    },
                ));
                obs.unit_done(dff.index() as u64, payload, None)?;
            }
            Ok(out)
        },
    )
}

/// Batch-replays a single strike on each of `dffs` at boundary `cycle`
/// and returns their classes in `dffs` order.
fn strike_classes<E: Environment + Clone>(
    injector: &mut Injector<'_, E>,
    dffs: &[DffId],
    cycle: u64,
) -> Vec<FailureClass> {
    injector.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
    dffs.iter()
        .map(|&d| injector.group_failure(cycle, &[d]))
        .collect()
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

/// [`spatial_double_strike_campaign`] under a [`RunContext`]. Work units
/// are cycles; a resumed unit preloads its boundary's pair
/// classifications and replays the tally loop from the warmed cache.
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
    if opts.ci_target.is_some() {
        return spatial_double_strike_campaign_adaptive(
            circuit, topo, timing, golden, dffs, opts, ctx,
        );
    }
    let cycles = valid_cycles(golden);
    let threads = resolve_threads(opts.threads, cycles.len());
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "spatial_double",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "spatial_double", fingerprint, knobs)?;
    let costs: Vec<u64> = cycles
        .iter()
        .map(|&cycle| unit_cost(golden, cycle, dffs.len().saturating_sub(1)))
        .collect();
    observe_campaign(
        ctx,
        &setup,
        "spatial_double",
        cycles.len(),
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            progress.schedule(cycles.len());
            let units = run_queue(
                threads,
                &cycles,
                &queue_order(&costs),
                |id| Worker {
                    injector: worker_injector(circuit, topo, timing, golden, &opts),
                    obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                },
                |w: &mut Worker<'_, '_, E, S>, &cycle| spatial_unit(w, dffs, cycle, resumed, store),
                |w| w.obs.finish(),
            )?;
            let mut result = SavfResult::default();
            for unit in &units {
                result.merge(unit);
            }
            Ok(result)
        },
    )
}

/// One spatial double-strike unit: every adjacent pair of `dffs` flipped
/// together at boundary `cycle`. A resumed unit preloads its boundary's
/// pair classifications and replays the tally loop from the warmed cache.
/// Shared by the uniform and adaptive spatial campaigns.
fn spatial_unit<E: Environment + Clone, S: TelemetrySink>(
    w: &mut Worker<'_, '_, E, S>,
    dffs: &[DffId],
    cycle: u64,
    resumed: &BTreeMap<u64, String>,
    store: Option<&Mutex<CheckpointStore>>,
) -> Result<SavfResult, String> {
    let was_resumed = if let Some(payload) = resumed.get(&cycle) {
        let mut t = Tokens::new(payload);
        let failures = decode_failures(&mut t)?;
        if !t.finished() {
            return Err("checkpoint parse error: trailing payload tokens".into());
        }
        w.injector.preload_failures(cycle, failures);
        true
    } else {
        false
    };
    let mut unit = SavfResult::default();
    let injector = &mut w.injector;
    timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
        injector.prefill_failures(cycle, dffs.windows(2).map(|p| p.to_vec()));
        for pair in dffs.windows(2) {
            unit.injections += 1;
            if injector.group_ace(cycle, pair) {
                unit.ace_hits += 1;
            }
        }
    });
    let payload = (store.is_some() && !was_resumed).then(|| {
        let mut out = String::new();
        encode_failures(&mut out, &w.injector.snapshot_failures(cycle));
        out.trim_start().to_owned()
    });
    w.obs.unit_done(cycle, payload, None)?;
    Ok(unit)
}

fn fraction_to_picos(timing: &TimingModel, fraction: f64) -> Picos {
    (timing.clock_period() as f64 * fraction).round() as Picos
}

// ---------------------------------------------------------------------------
// Adaptive stratified sampling (`ci_target` set). Injection sites are
// stratified by cheap static signals — edge static slack and per-cycle
// toggle activity — the replay budget is allocated Neyman-style from the
// running per-stratum tallies, and a stratum retires as soon as every
// estimand's composed Wilson interval is inside the target half-width.
// The uniform paths above are untouched: `ci_target: None` (the default)
// never reaches this section, so legacy reports stay byte-identical.
// ---------------------------------------------------------------------------

/// Validates the adaptive knob pair, normalizing `ci_target` out of its
/// `Option` (callers only branch here when it is set).
fn checked_adaptive(ci_target: Option<f64>, strata: usize) -> Result<(f64, usize), String> {
    let target = validate_ci_target(ci_target.expect("adaptive path requires ci_target"))?;
    let buckets = validate_strata(strata)?;
    Ok((target, buckets))
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

/// Packs a sweep checkpoint key: adaptive rounds may revisit a cycle with
/// a different edge subset, so the unit key embeds the round number.
fn round_key(round: u64, cycle: u64) -> u64 {
    debug_assert!(cycle < (1 << 44), "trace cycle overflows the round key");
    (round << 44) | cycle
}

/// Adaptive counterpart of [`delay_avf_campaign_observed`]: sites are
/// (cycle, edge) pairs stratified by edge static slack × cycle toggle
/// activity, and each round's selected sites are grouped per cycle so the
/// batched unit body (and its caches) still see one latch boundary at a
/// time. Work units are (round, cycle) groups.
fn delay_avf_campaign_adaptive<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    config: &CampaignConfig,
    ctx: &RunContext<'_, S>,
) -> Result<(Vec<DelayAvfResult>, InjectorStats), String> {
    let (ci_target, buckets) = checked_adaptive(config.ci_target, config.strata)?;
    let cycles = valid_cycles(golden);
    let nf = config.delay_fractions.len();
    let toggles: Vec<u64> = cycles
        .iter()
        .map(|&cycle| toggle_activity(golden, cycle))
        .collect();
    let slacks: Vec<u64> = edges
        .iter()
        .map(|&edge| edge_static_slack(timing, circuit, topo, edge))
        .collect();
    let tb = bucket_axis(&toggles, buckets);
    let sb = bucket_axis(&slacks, buckets);
    let site_stratum: Vec<usize> = (0..cycles.len() * edges.len())
        .map(|site| sb[site % edges.len().max(1)] * buckets + tb[site / edges.len().max(1)])
        .collect();
    let mut plan = AdaptivePlan::new(
        site_stratum,
        buckets * buckets,
        nf,
        ci_target,
        config.sample_seed,
    );
    let population = plan.population();
    let items: Vec<usize> = edges.iter().map(|e| e.index()).collect();
    let fingerprint = campaign_fingerprint(
        "delay_sweep_adaptive",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &config.delay_fractions,
        config.due_slack,
        config.compute_orace,
    );
    let knobs = knob_hash(
        config.lanes,
        config.timing_lanes,
        config.collapse,
        config.ci_target,
        config.strata,
        config.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "delay_sweep_adaptive", fingerprint, knobs)?;
    let threads = resolve_threads(config.threads, cycles.len());
    let opts = config.replay_options();
    observe_campaign(
        ctx,
        &setup,
        "delay_sweep_adaptive",
        population,
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            let mut rows = empty_rows(config);
            let mut stats = InjectorStats::default();
            let mut round: u64 = 0;
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                // Group the round's sites per cycle: the unit body batches one
                // latch boundary, and grouping keeps per-unit work independent
                // of how sites landed across strata.
                let mut by_cycle: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for site in sites {
                    by_cycle
                        .entry(site / edges.len().max(1))
                        .or_default()
                        .push(site % edges.len().max(1));
                }
                let groups: Vec<(usize, Vec<usize>)> = by_cycle.into_iter().collect();
                let costs: Vec<u64> = groups
                    .iter()
                    .map(|(cyclepos, selected)| {
                        unit_cost(golden, cycles[*cyclepos], selected.len())
                    })
                    .collect();
                progress.schedule(groups.len());
                let units = run_queue(
                    resolve_threads(config.threads, groups.len()),
                    &groups,
                    &queue_order(&costs),
                    |id| Worker {
                        injector: worker_injector(circuit, topo, timing, golden, &opts),
                        obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                    },
                    |w: &mut Worker<'_, '_, E, S>, (cyclepos, edge_positions)| {
                        let cycle = cycles[*cyclepos];
                        let key = round_key(round, cycle);
                        if let Some(payload) = resumed.get(&key) {
                            let (unit_rows, vis, unit_stats, failures) =
                                decode_adaptive_sweep_unit(payload, config, edge_positions.len())?;
                            w.injector.preload_failures(cycle + 1, failures);
                            w.obs.unit_done(key, None, Some(&unit_stats))?;
                            return Ok((unit_rows, unit_stats, vis));
                        }
                        let selected: Vec<EdgeId> =
                            edge_positions.iter().map(|&ei| edges[ei]).collect();
                        let before = w.injector.stats;
                        let (unit_rows, vis) = delay_sweep_unit_vis(
                            &mut w.injector,
                            timing,
                            &selected,
                            config,
                            cycle,
                            S::ENABLED,
                            &mut w.obs.phases,
                        );
                        let delta = w.injector.stats.delta_since(&before);
                        let payload = store.is_some().then(|| {
                            encode_adaptive_sweep_unit(
                                &unit_rows,
                                &vis,
                                &delta,
                                &w.injector.snapshot_failures(cycle + 1),
                            )
                        });
                        w.obs.unit_done(key, payload, Some(&delta))?;
                        Ok((unit_rows, delta, vis))
                    },
                    |w| w.obs.finish(),
                )?;
                // Units come back in `groups` order, so the plan tallies
                // are schedule-invariant.
                let trials = vec![1u64; nf];
                for ((cyclepos, edge_positions), (unit_rows, unit_stats, vis)) in
                    groups.iter().zip(&units)
                {
                    merge_rows(&mut rows, unit_rows);
                    stats.merge(unit_stats);
                    let width = edge_positions.len();
                    for (j, &ei) in edge_positions.iter().enumerate() {
                        let site = cyclepos * edges.len() + ei;
                        let hits: Vec<u64> =
                            (0..nf).map(|fi| u64::from(vis[fi * width + j])).collect();
                        plan.record(site, &hits, &trials);
                    }
                }
                plan.finish_round();
                round += 1;
            }
            stats.strata_active = plan.strata_active() as u64;
            stats.strata_retired_early = plan.strata_retired_early() as u64;
            stats.adaptive_replays_saved = ((population - plan.sampled_sites()) * nf) as u64;
            for (fi, row) in rows.iter_mut().enumerate() {
                let est = plan.estimate(fi);
                row.adaptive = Some(AdaptiveEstimate {
                    point: est.point,
                    lo: est.lo,
                    hi: est.hi,
                    population,
                    sampled: plan.sampled_sites(),
                });
            }
            Ok((rows, stats))
        },
    )
}

/// Adaptive counterpart of [`savf_campaign_observed`]: sites are trace
/// cycles stratified by toggle activity × trace phase; each sampled cycle
/// runs the full per-bit strike unit, so the estimand is the same ACE
/// fraction the uniform campaign reports.
fn savf_campaign_adaptive<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(SavfResult, InjectorStats), String> {
    let (ci_target, buckets) = checked_adaptive(opts.ci_target, opts.strata)?;
    let cycles = valid_cycles(golden);
    let mut plan = AdaptivePlan::new(
        cycle_strata(golden, &cycles, buckets),
        buckets * buckets,
        1,
        ci_target,
        opts.sample_seed,
    );
    let population = plan.population();
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "savf_adaptive",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "savf_adaptive", fingerprint, knobs)?;
    let threads = resolve_threads(opts.threads, cycles.len());
    observe_campaign(
        ctx,
        &setup,
        "savf_adaptive",
        population,
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            let mut result = SavfResult::default();
            let mut stats = InjectorStats::default();
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                let costs: Vec<u64> = sites
                    .iter()
                    .map(|&site| unit_cost(golden, cycles[site], dffs.len()))
                    .collect();
                progress.schedule(sites.len());
                let units = run_queue(
                    resolve_threads(opts.threads, sites.len()),
                    &sites,
                    &queue_order(&costs),
                    |id| Worker {
                        injector: worker_injector(circuit, topo, timing, golden, &opts),
                        obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                    },
                    |w: &mut Worker<'_, '_, E, S>, &site| {
                        savf_unit(w, dffs, cycles[site], resumed, store)
                    },
                    |w| w.obs.finish(),
                )?;
                for (&site, (unit, unit_stats)) in sites.iter().zip(&units) {
                    result.merge(unit);
                    stats.merge(unit_stats);
                    plan.record(site, &[unit.ace_hits as u64], &[unit.injections as u64]);
                }
                plan.finish_round();
            }
            stats.strata_active = plan.strata_active() as u64;
            stats.strata_retired_early = plan.strata_retired_early() as u64;
            stats.adaptive_replays_saved =
                ((population - plan.sampled_sites()) * dffs.len()) as u64;
            Ok((result, stats))
        },
    )
}

/// Adaptive counterpart of [`delay_avf_campaign_records_observed`]. The
/// returned row carries the stratified estimate; records cover the sampled
/// cycles only, in (round, cycle, edge) order.
#[allow(clippy::too_many_arguments)]
fn delay_avf_campaign_records_adaptive<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    edges: &[EdgeId],
    fraction: f64,
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<(DelayAvfResult, Vec<InjectionRecord>), String> {
    let (ci_target, buckets) = checked_adaptive(opts.ci_target, opts.strata)?;
    let cycles = valid_cycles(golden);
    let extra = fraction_to_picos(timing, fraction);
    let mut plan = AdaptivePlan::new(
        cycle_strata(golden, &cycles, buckets),
        buckets * buckets,
        1,
        ci_target,
        opts.sample_seed,
    );
    let population = plan.population();
    let items: Vec<usize> = edges.iter().map(|e| e.index()).collect();
    let fingerprint = campaign_fingerprint(
        "delay_records_adaptive",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[fraction],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(
        &ctx.checkpoint,
        "delay_records_adaptive",
        fingerprint,
        knobs,
    )?;
    let threads = resolve_threads(opts.threads, cycles.len());
    observe_campaign(
        ctx,
        &setup,
        "delay_records_adaptive",
        population,
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            let mut row = DelayAvfResult {
                delay_fraction: fraction,
                ..DelayAvfResult::default()
            };
            let mut records: Vec<InjectionRecord> = Vec::new();
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                let costs: Vec<u64> = sites
                    .iter()
                    .map(|&site| unit_cost(golden, cycles[site], edges.len()))
                    .collect();
                progress.schedule(sites.len());
                let units = run_queue(
                    resolve_threads(opts.threads, sites.len()),
                    &sites,
                    &queue_order(&costs),
                    |id| Worker {
                        injector: worker_injector(circuit, topo, timing, golden, &opts),
                        obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                    },
                    |w: &mut Worker<'_, '_, E, S>, &site| {
                        records_unit(w, edges, extra, cycles[site], resumed, store)
                    },
                    |w| w.obs.finish(),
                )?;
                // Units come back in `sites` order; each site's visible
                // count feeds the plan tallies.
                for (&site, unit) in sites.iter().zip(units) {
                    for record in &unit {
                        tally(&mut row, &record.outcome);
                    }
                    let hits = unit.iter().filter(|r| r.outcome.visible).count() as u64;
                    plan.record(site, &[hits], &[edges.len() as u64]);
                    records.extend(unit);
                }
                plan.finish_round();
            }
            row.adaptive = {
                let est = plan.estimate(0);
                Some(AdaptiveEstimate {
                    point: est.point,
                    lo: est.lo,
                    hi: est.hi,
                    population,
                    sampled: plan.sampled_sites(),
                })
            };
            Ok((row, records))
        },
    )
}

/// Adaptive counterpart of [`savf_per_bit_campaign_observed`]. Work units
/// are *cycles* here (the uniform campaign checkpoints bits): every bit is
/// an estimand, and a cycle retires only when all bits' intervals are
/// tight, so hotspot bits keep drawing budget.
fn savf_per_bit_campaign_adaptive<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<Vec<(DffId, SavfResult)>, String> {
    let (ci_target, buckets) = checked_adaptive(opts.ci_target, opts.strata)?;
    let cycles = valid_cycles(golden);
    let mut plan = AdaptivePlan::new(
        cycle_strata(golden, &cycles, buckets),
        buckets * buckets,
        dffs.len().max(1),
        ci_target,
        opts.sample_seed,
    );
    let population = plan.population();
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "savf_per_bit_adaptive",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(&ctx.checkpoint, "savf_per_bit_adaptive", fingerprint, knobs)?;
    let threads = resolve_threads(opts.threads, cycles.len());
    observe_campaign(
        ctx,
        &setup,
        "savf_per_bit_adaptive",
        population,
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            let mut out: Vec<(DffId, SavfResult)> =
                dffs.iter().map(|&d| (d, SavfResult::default())).collect();
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                let costs: Vec<u64> = sites
                    .iter()
                    .map(|&site| unit_cost(golden, cycles[site], dffs.len()))
                    .collect();
                progress.schedule(sites.len());
                let units = run_queue(
                    resolve_threads(opts.threads, sites.len()),
                    &sites,
                    &queue_order(&costs),
                    |id| Worker {
                        injector: worker_injector(circuit, topo, timing, golden, &opts),
                        obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                    },
                    |w: &mut Worker<'_, '_, E, S>, &site| {
                        let cycle = cycles[site];
                        if let Some(payload) = resumed.get(&cycle) {
                            let classes = decode_per_bit_unit(payload, dffs.len())?;
                            w.obs.unit_done(cycle, None, None)?;
                            return Ok(classes);
                        }
                        let injector = &mut w.injector;
                        let classes = timed(S::ENABLED, &mut w.obs.phases.replay_us, || {
                            strike_classes(injector, dffs, cycle)
                        });
                        let payload = store.is_some().then(|| encode_classes(&classes));
                        w.obs.unit_done(cycle, payload, None)?;
                        Ok(classes)
                    },
                    |w| w.obs.finish(),
                )?;
                let trials = vec![1u64; dffs.len().max(1)];
                for (&site, classes) in sites.iter().zip(&units) {
                    let hits: Vec<u64> =
                        classes.iter().map(|c| u64::from(c.is_visible())).collect();
                    for ((_, r), &ace) in out.iter_mut().zip(&hits) {
                        r.injections += 1;
                        r.ace_hits += ace as usize;
                    }
                    if dffs.is_empty() {
                        plan.record(site, &[0], &[0]);
                    } else {
                        plan.record(site, &hits, &trials);
                    }
                }
                plan.finish_round();
            }
            Ok(out)
        },
    )
}

/// Adaptive counterpart of [`spatial_double_strike_campaign_observed`]:
/// cycle sites, one estimand (the pairwise ACE fraction).
fn spatial_double_strike_campaign_adaptive<E: Environment + Clone, S: TelemetrySink>(
    circuit: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    golden: &GoldenRun<E>,
    dffs: &[DffId],
    opts: ReplayOptions,
    ctx: &RunContext<'_, S>,
) -> Result<SavfResult, String> {
    let (ci_target, buckets) = checked_adaptive(opts.ci_target, opts.strata)?;
    let cycles = valid_cycles(golden);
    let mut plan = AdaptivePlan::new(
        cycle_strata(golden, &cycles, buckets),
        buckets * buckets,
        1,
        ci_target,
        opts.sample_seed,
    );
    let population = plan.population();
    let items: Vec<usize> = dffs.iter().map(|d| d.index()).collect();
    let fingerprint = campaign_fingerprint(
        "spatial_double_adaptive",
        circuit,
        timing,
        golden,
        &cycles,
        &items,
        &[],
        opts.due_slack,
        false,
    );
    let knobs = knob_hash(
        opts.lanes,
        opts.timing_lanes,
        opts.collapse,
        opts.ci_target,
        opts.strata,
        opts.sample_seed,
    );
    let setup = open_store(
        &ctx.checkpoint,
        "spatial_double_adaptive",
        fingerprint,
        knobs,
    )?;
    let threads = resolve_threads(opts.threads, cycles.len());
    observe_campaign(
        ctx,
        &setup,
        "spatial_double_adaptive",
        population,
        threads,
        |progress| {
            let store = setup.store.as_ref();
            let resumed = &setup.resumed;
            let mut result = SavfResult::default();
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                let costs: Vec<u64> = sites
                    .iter()
                    .map(|&site| unit_cost(golden, cycles[site], dffs.len().saturating_sub(1)))
                    .collect();
                progress.schedule(sites.len());
                let units = run_queue(
                    resolve_threads(opts.threads, sites.len()),
                    &sites,
                    &queue_order(&costs),
                    |id| Worker {
                        injector: worker_injector(circuit, topo, timing, golden, &opts),
                        obs: WorkerObserver::new(ctx.telemetry, store, progress, id),
                    },
                    |w: &mut Worker<'_, '_, E, S>, &site| {
                        spatial_unit(w, dffs, cycles[site], resumed, store)
                    },
                    |w| w.obs.finish(),
                )?;
                for (&site, unit) in sites.iter().zip(&units) {
                    result.merge(unit);
                    plan.record(site, &[unit.ace_hits as u64], &[unit.injections as u64]);
                }
                plan.finish_round();
            }
            Ok(result)
        },
    )
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
        // Collapsing on discharges every flip group of this fixture
        // formally; off, the replay engines run.
        for (ci_target, collapse) in [(None, true), (None, false), (Some(0.2), false)] {
            let serial = run(1, ci_target, collapse);
            assert!(collapse || serial.1 .1.replays > 0, "the strikes replay");
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
