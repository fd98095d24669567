//! The two-step DelayACE engine (paper §V-B) plus the shared
//! state-element-error replay machinery used for GroupACE, per-bit ACE and
//! particle-strike injections.

use std::collections::{HashMap, HashSet};

use delayavf_netlist::{Circuit, DffId, EdgeId, NetId, Topology};
use delayavf_sim::{
    BatchDeltaSim, BatchSim, DeltaEventSim, Environment, FaultSpec, GoldenWave, LaneMask, LaneWord,
    MAX_LANES, MAX_TIMING_LANES,
};
use delayavf_timing::{Picos, TimingModel};

use crate::collapse::CollapsePlan;
use crate::golden::GoldenRun;

/// Most private environments one replay batch holds at once. A lane gets
/// one when its outputs leave the golden words or it outlives the trace;
/// each is a clone of the golden environment (a `MemEnv` carries 64 KiB of
/// RAM), so this bounds a batch's extra memory at `PRIVATE_ENV_CAP` clones.
/// Lanes that need an environment beyond it are parked and finished in
/// follow-up batches. A constant, not a knob: parking never changes
/// results.
const PRIVATE_ENV_CAP: usize = 64;

/// The private-environment cap in force: [`PRIVATE_ENV_CAP`], or the
/// override of the test-only `tests::env_cap::with`.
fn private_env_cap() -> usize {
    #[cfg(test)]
    if let Some(cap) = tests::env_cap::get() {
        return cap;
    }
    PRIVATE_ENV_CAP
}

/// Program-level classification of a fault's effect (paper §II-A: a
/// program-visible failure is either a silent data corruption or a detected
/// unrecoverable error).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FailureClass {
    /// Architecturally correct execution: the error was masked or corrected.
    #[default]
    Masked,
    /// Silent data corruption: the program completed normally with wrong
    /// output.
    Sdc,
    /// Detected unrecoverable error: the program crashed, trapped, or
    /// failed to complete within the cycle budget.
    Due,
}

impl FailureClass {
    /// True for SDC and DUE (the paper's "program-visible failure").
    #[inline]
    pub fn is_visible(self) -> bool {
        self != FailureClass::Masked
    }
}

/// The result of one small-delay-fault injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectionOutcome {
    /// Number of statically reachable flip-flops (Definition 2).
    pub statically_reachable: usize,
    /// The dynamically reachable set (Definition 3): flip-flops that latched
    /// a wrong value in the faulty cycle.
    pub dynamic_set: Vec<DffId>,
    /// Whether the dynamic set is GroupACE (Definition 4), i.e. whether the
    /// injected edge is DelayACE in this cycle (Definition 1).
    pub visible: bool,
    /// SDC/DUE classification of the failure.
    pub class: FailureClass,
}

impl InjectionOutcome {
    /// A fault with no effect at all.
    fn masked(statically_reachable: usize) -> Self {
        InjectionOutcome {
            statically_reachable,
            dynamic_set: Vec::new(),
            visible: false,
            class: FailureClass::Masked,
        }
    }

    /// True when the fault produced two or more simultaneous state-element
    /// errors.
    pub fn is_multi_bit(&self) -> bool {
        self.dynamic_set.len() >= 2
    }
}

/// Cached per-cycle reconstruction shared across all edges injected in the
/// same cycle.
struct CycleData {
    cycle: u64,
    /// Settled net values of cycle `cycle - 1` (the timed waveform's
    /// initial condition).
    prev_values: Vec<bool>,
    /// Flip-flop values during `cycle`.
    new_state: Vec<bool>,
    /// Golden flip-flop values at the start of `cycle + 1`.
    next_state: Vec<bool>,
}

/// The DelayACE computation engine.
///
/// One instance owns all scratch buffers and caches; campaigns drive it with
/// [`Injector::inject`] per (edge, cycle, delay) triple. Injection cycles
/// must come from the golden run's sampled set (each needs a checkpoint).
///
/// Each step has one production engine. Step 1 (timing-aware) runs on
/// [`BatchDeltaSim`], with [`DeltaEventSim`] for scalar queries and retired
/// lanes; both read the one [`GoldenWave`] the injector builds per cycle.
/// Step 2 (timing-agnostic) runs on [`BatchSim`] alone: every replay,
/// including a single cache miss, is a batch whose lanes stay in it until
/// they are classified, on private environments once their outputs leave
/// the golden words or they outlive the trace.
pub struct Injector<'a, E: Environment + Clone> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    golden: &'a GoldenRun<E>,
    /// The fault-free timed waveform of the current injection cycle, read by
    /// the quiet-source certificate and both delta engines.
    gold: GoldenWave<'a>,
    delta: DeltaEventSim<'a>,
    batch_delta: BatchDeltaSim<'a>,
    batch: BatchSim<'a>,
    due_slack: u64,
    early_exit: bool,
    toggle_filter: bool,
    /// Lane width for bit-parallel batch replays (1 = one-lane batches).
    lanes: usize,
    /// Lane width for lane-packed timing-aware batch replays (1 = scalar
    /// only).
    timing_lanes: usize,
    /// Zeroed input-word scratch for advancing the shared golden
    /// environment along the recorded trace.
    env_scratch: Vec<u64>,
    cycle_data: Option<CycleData>,
    /// Fan-in sources (flip-flops, input nets) per net, for the toggle
    /// pre-filter.
    fanin_cache: HashMap<NetId, (Vec<DffId>, Vec<NetId>)>,
    /// boundary -> flipped set -> failure classification. Two levels so a
    /// lookup can borrow the flip set as a slice and hits allocate nothing.
    failure_cache: HashMap<u64, HashMap<Vec<DffId>, FailureClass>>,
    /// For each input net: (port index, bit) to look values up in the trace.
    input_net_pos: HashMap<NetId, (usize, usize)>,
    /// Whether the pre-simulation collapsing layer (equivalence classes,
    /// quiet-source certificate, masking discharge of flip groups no output
    /// ever observes) is enabled.
    collapse: bool,
    /// The collapsing plan, built lazily on the first collapsed query so
    /// `--no-collapse` campaigns never pay for it.
    plan: Option<CollapsePlan>,
    /// Dynamic sets known at `step1_cycle`, keyed `(edge, extra)`: every
    /// class representative's, computed once per cycle and served to each
    /// member of its class, and — once [`Injector::preload_step1`] has
    /// seeded the cycle — every plain pair's whose set needed the golden
    /// waveform. Cleared when the injection cycle changes.
    step1_cache: HashMap<(EdgeId, Picos), Vec<DffId>>,
    step1_cycle: Option<u64>,
    /// Whether plain pairs' sets are kept in `step1_cache` too.
    keep_step1: bool,
    /// Memoized [`Injector::golden_identical_class`] (outer `None` = not
    /// yet computed, inner `None` = not establishable).
    golden_class: Option<Option<FailureClass>>,
    /// Counters for reporting/debugging.
    pub stats: InjectorStats,
}

/// Defines [`InjectorStats`] from one ordered counter list: the struct with
/// its public named fields, the field-wise [`InjectorStats::merge`] and
/// [`InjectorStats::delta_since`], and the name/value tables that the
/// checkpoint codec and the telemetry schema are generated from. The list
/// order is the canonical (schema) order.
macro_rules! injector_stats {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// Engine counters: how often each §V-C optimization fired.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct InjectorStats {
            $($(#[doc = $doc])* pub $name: u64,)*
        }

        impl InjectorStats {
            /// Number of counters.
            pub(crate) const COUNT: usize = [$(stringify!($name)),*].len();

            /// Counter names in canonical order: the field names, as the
            /// checkpoint payloads and the telemetry `stats_delta` event
            /// spell them.
            pub(crate) const NAMES: [&'static str; Self::COUNT] = [$(stringify!($name)),*];

            /// Counter values in [`InjectorStats::NAMES`] order.
            pub(crate) fn values(&self) -> [u64; Self::COUNT] {
                [$(self.$name),*]
            }

            /// The counters from values in [`InjectorStats::NAMES`] order.
            pub(crate) fn from_values(values: [u64; Self::COUNT]) -> Self {
                let [$($name),*] = values;
                InjectorStats { $($name),* }
            }

            /// Adds another worker's counters into this one.
            ///
            /// The campaign engine hands out work in whole units, each at
            /// one latch boundary, every cache key is scoped to a single
            /// latch boundary, and the classes a unit inherits from
            /// earlier adaptive rounds change only between rounds, so
            /// cache hit/miss counts do not depend on which worker ran
            /// which unit: the merged totals are identical to a serial
            /// run's for any thread count and schedule.
            pub fn merge(&mut self, other: &InjectorStats) {
                $(self.$name += other.$name;)*
            }

            /// The field-wise difference `self - baseline`. Counters only
            /// ever grow, so a snapshot taken before a work unit subtracted
            /// from one taken after yields exactly that unit's contribution
            /// — the quantity the checkpoint and telemetry layers record.
            pub fn delta_since(&self, baseline: &InjectorStats) -> InjectorStats {
                InjectorStats { $($name: self.$name - baseline.$name,)* }
            }
        }
    };
}

injector_stats! {
    /// Injections rejected because no path through the edge exceeds the
    /// clock period even with the fault.
    static_filtered,
    /// Injections rejected because no fan-in source of the faulted edge
    /// toggles in the cycle.
    toggle_filtered,
    /// Timing-aware (event-driven) simulations actually run.
    event_sims,
    /// Timing-agnostic replays actually run (cache misses), one per
    /// scenario lane of the batch engine.
    replays,
    /// Replay results served from the cache.
    replay_cache_hits,
    /// Cycles stepped across all replays; `gates_evaluated` can be compared
    /// against `replay_cycles * num_gates`, the work a full replay would do.
    replay_cycles,
    /// Gate-word evaluations of the batch replay engine: the gates its
    /// divergence-cone path visited plus every gate of each full sweep,
    /// which counts the whole netlist although a straight-line gate-word
    /// costs about an eighth of a cone visit (the engine picks the path
    /// per step by that ratio). So this is a work count, not a cost, and
    /// fewer evaluations need not mean less time. One evaluation covers
    /// every lane of its batch, so the count depends on the lane width and
    /// on how batches are composed, but it is a pure function of the
    /// batches run and therefore thread-count invariant for cycle-unit
    /// campaigns. Golden-side work is not counted: each
    /// trace cycle's golden settle is computed once per golden trace and
    /// shared by every replay crossing it, amortizing to one golden run.
    gates_evaluated,
    /// Replays still diverged when they reached the end of the golden
    /// trace, which then ran on from their materialized state with no
    /// golden baseline to diff against.
    full_replay_fallbacks,
    /// Bit-parallel batch replays executed (each covers up to `lanes`
    /// scenarios; a cache miss outside a prefill is a one-lane batch).
    /// Depends on the configured lane width — fewer, fuller batches at
    /// higher widths — but not on the thread count for cycle-unit
    /// campaigns.
    batched_replays,
    /// Scenario lanes actually occupied across all batch replays: the
    /// number of distinct uncached scenarios replayed. Invariant across
    /// lane widths > 1 (deduplication and cache checks happen before lane
    /// chunking) and across thread counts for cycle-unit campaigns; at
    /// `lanes = 1` it equals `replays`.
    lanes_occupied,
    /// Total lane slots *scheduled* across all batch replays (the sum of
    /// chunk sizes, not `batched_replays * lanes` — a partially-filled
    /// final chunk contributes only the slots it actually carries); the
    /// denominator of [`InjectorStats::lane_utilization`]. Invariant across
    /// lane widths > 1 and thread counts, like `lanes_occupied`.
    lane_slots,
    /// Fault-free timed waveforms built: at most one per distinct trace
    /// cycle that reached the quiet-source certificate or a timing-aware
    /// simulation, shared by both. Campaigns iterate cycle-outer/edge-inner
    /// and the campaign engine hands out whole cycles, so this count is
    /// thread-count invariant.
    golden_waveform_builds,
    /// Merged waveform time-steps processed by the delta engines across all
    /// gate re-evaluations in faulty cones. The divergence cone of an
    /// injection is fully determined by the struck edge and the golden
    /// waveforms, so this counter is thread-count invariant too.
    delta_events,
    /// Gates whose recomputed faulty output waveform reconverged with the
    /// golden waveform, pruning their entire downstream cone from the delta
    /// simulation.
    delta_early_exits,
    /// Lane-packed timing-aware batch replays executed (each covers up to
    /// `timing_lanes` `(edge, extra)` scenarios at one trace cycle). Zero
    /// when `timing_lanes <= 1`. Depends on the configured timing lane
    /// width — fewer, fuller batches at higher widths — but not on the
    /// thread count for cycle-unit campaigns.
    batched_timing_replays,
    /// Scenario lanes actually occupied across all timing-aware batch
    /// replays: the number of injections whose step-1 simulation rode a
    /// packed batch. Invariant across timing lane widths > 1 (the static and
    /// toggle pre-filters run before lane chunking) and across thread counts
    /// for cycle-unit campaigns.
    timing_lanes_occupied,
    /// Total lane slots *scheduled* across all timing-aware batch replays
    /// (the sum of chunk sizes, not `batched_timing_replays *
    /// timing_lanes` — a partially-filled final chunk contributes only the
    /// slots it actually carries); the denominator of
    /// [`InjectorStats::timing_lane_utilization`]. Invariant across timing
    /// lane widths > 1 and thread counts, like `timing_lanes_occupied`.
    timing_lane_slots,
    /// Injections served without their own timing-aware simulation by the
    /// collapsing layer: queries on a member edge redirected to its
    /// equivalence-class representative, plus queries discharged by the
    /// quiet-source certificate (the edge's source net has an empty
    /// transition list in the fault-free waveform of the cycle, so the
    /// faulty run is provably identical). Collapse classes and quiescence
    /// are properties of the plan and the golden trace alone, so the count
    /// is thread-count and lane-width invariant for cycle-unit
    /// campaigns. Zero when collapsing is disabled.
    collapsed_edges,
    /// Representative simulations actually run on behalf of an equivalence
    /// class (one per distinct `(representative, extra)` pair per cycle).
    /// Thread-count and lane-width invariant like
    /// [`InjectorStats::collapsed_edges`]. Zero when collapsing is
    /// disabled.
    class_representatives,
    /// Always 0: the masking check never classifies a flip group as a
    /// failure, so every visible class comes from a replay. Kept only
    /// because the performance harness reads it and the checkpoint and
    /// telemetry layouts list it.
    formally_discharged_ace,
    /// Flip groups the semi-formal masking check classified as Masked
    /// without any replay: none of the flipped bits can ever reach a
    /// primary output, or the flips land at or past the trace's last
    /// observed boundary. One count per distinct `(boundary, flip set)`
    /// discharged, so the total is thread-count and lane-width invariant
    /// for cycle-unit campaigns. Zero when collapsing is disabled.
    formally_discharged_unace,
    /// Strata with at least one injection site in the adaptive sampling
    /// plan. Stratification is a pure function of the golden trace and the
    /// static timing table, so the count is thread-count and lane-width
    /// invariant. Zero when adaptive sampling is off.
    strata_active,
    /// Strata the adaptive plan retired before exhausting their sites
    /// because every estimand's Wilson interval was already within the
    /// target half-width. Retirement decisions are pure functions of the
    /// merged round tallies, so the count is thread-count and lane-width
    /// invariant. Zero when adaptive sampling is off.
    strata_retired_early,
    /// Injections the adaptive plan never sampled: the unsampled site count
    /// times the per-site injection multiplier. This counts sites, not
    /// replays avoided: a sweep that replays at a boundary settles the
    /// whole cycle there in one batch set, unsampled sites included, so
    /// its `replays` equal the uniform sweep's at every boundary it
    /// replays. Zero when adaptive sampling is off (the uniform path
    /// visits every site).
    adaptive_replays_saved,
    /// Replay lanes that needed a private environment while their batch
    /// already held the most it may (a fixed cap), and finished in a
    /// follow-up batch instead. Results never depend on parking. Depends on
    /// the lane width like `batched_replays`; thread-count invariant for
    /// cycle-unit campaigns.
    parked_lanes,
}

impl InjectorStats {
    /// Mean lane occupancy of the batch replays (`lanes_occupied /
    /// lane_slots`), in `[0, 1]`. Zero when no batch ran. Slots are counted
    /// as *scheduled* (chunk sizes), so a workload smaller than the
    /// configured width no longer reads as waste: sub-1.0 values can only
    /// come from genuinely unscheduled lanes, not from the final partial
    /// chunk.
    pub fn lane_utilization(&self) -> f64 {
        if self.lane_slots == 0 {
            0.0
        } else {
            self.lanes_occupied as f64 / self.lane_slots as f64
        }
    }

    /// Mean lane occupancy of the timing-aware batch replays
    /// (`timing_lanes_occupied / timing_lane_slots`), in `[0, 1]`. Zero when
    /// no timing batch ran. Slots are counted as *scheduled* (chunk sizes),
    /// so a sweep smaller than the configured width — e.g. 32 edges at
    /// `timing_lanes = 64` — reads 1.0 instead of 0.5.
    pub fn timing_lane_utilization(&self) -> f64 {
        if self.timing_lane_slots == 0 {
            0.0
        } else {
            self.timing_lanes_occupied as f64 / self.timing_lane_slots as f64
        }
    }
}

/// The flip-flops whose latched value differs from the golden next state:
/// the dynamically reachable set (Definition 3).
fn mismatches(latched: &[bool], next_state: &[bool]) -> Vec<DffId> {
    latched
        .iter()
        .zip(next_state)
        .enumerate()
        .filter(|&(_, (a, b))| a != b)
        .map(|(i, _)| DffId::from_index(i))
        .collect()
}

/// A replay lane's own environment and the output words it observes in
/// its next step. Lanes without one follow the golden trajectory.
struct PrivateEnv<E> {
    env: E,
    outputs: Vec<u64>,
}

/// A replay lane that needed a private environment while its batch was at
/// the cap: it resumes at `boundary` with these flips and pending output
/// words once the batch is done.
struct Parked {
    /// The lane's index in its chunk.
    id: usize,
    boundary: u64,
    flips: Vec<DffId>,
    outputs: Vec<u64>,
}

/// The lanes holding a private environment.
fn with_env<E>(own: &[Option<PrivateEnv<E>>]) -> LaneMask {
    own.iter()
        .enumerate()
        .filter(|(_, p)| p.is_some())
        .fold(LaneMask::ZERO, |m, (lane, _)| m | LaneMask::lane_mask(lane))
}

/// Iterates the set bit positions of a lane mask, lowest first.
fn iter_lanes(mask: LaneMask) -> impl Iterator<Item = usize> {
    let mut words = mask.0;
    let mut wi = 0usize;
    std::iter::from_fn(move || loop {
        if wi >= words.len() {
            return None;
        }
        if words[wi] == 0 {
            wi += 1;
            continue;
        }
        let bit = words[wi].trailing_zeros() as usize;
        words[wi] &= words[wi] - 1;
        return Some(wi * 64 + bit);
    })
}

impl<'a, E: Environment + Clone> Injector<'a, E> {
    /// Creates an engine bound to one analyzed circuit and golden run.
    ///
    /// `due_slack` is the number of extra cycles past the golden program
    /// length a faulty run may take before it is declared a detected
    /// unrecoverable error (DUE).
    pub fn new(
        circuit: &'a Circuit,
        topo: &'a Topology,
        timing: &'a TimingModel,
        golden: &'a GoldenRun<E>,
        due_slack: u64,
    ) -> Self {
        let mut input_net_pos = HashMap::new();
        for (pi, port) in circuit.input_ports().iter().enumerate() {
            for (bit, &net) in port.nets().iter().enumerate() {
                input_net_pos.insert(net, (pi, bit));
            }
        }
        Injector {
            circuit,
            topo,
            timing,
            golden,
            gold: GoldenWave::new(circuit, topo, timing),
            delta: DeltaEventSim::new(circuit, topo, timing),
            batch_delta: BatchDeltaSim::new(circuit, topo, timing),
            batch: BatchSim::new(circuit, topo),
            due_slack,
            early_exit: true,
            toggle_filter: true,
            lanes: MAX_LANES,
            timing_lanes: MAX_TIMING_LANES,
            env_scratch: vec![0; circuit.input_ports().len()],
            cycle_data: None,
            fanin_cache: HashMap::new(),
            failure_cache: HashMap::new(),
            input_net_pos,
            collapse: true,
            plan: None,
            step1_cache: HashMap::new(),
            step1_cycle: None,
            keep_step1: false,
            golden_class: None,
            stats: InjectorStats::default(),
        }
    }

    /// Disables (or re-enables) the toggle pre-filter (§V-C). The filter
    /// never changes results — a fidelity property the test suite checks —
    /// it only skips timing-aware simulations that provably see no events.
    pub fn set_toggle_filter(&mut self, enabled: bool) {
        self.toggle_filter = enabled;
    }

    /// Disables (or re-enables) the convergence early-exit in the
    /// timing-agnostic replay. With early exit off every replay runs to the
    /// end of the program and visibility is decided purely by the final
    /// output comparison — the exact but slow baseline the early exit is
    /// benchmarked against (it never changes results, only cost). The
    /// convergence test is "divergence set empty" (plus fingerprint and
    /// pending-output equality) instead of a full packed state comparison —
    /// the same predicate, computed for free.
    pub fn set_early_exit(&mut self, enabled: bool) {
        self.early_exit = enabled;
    }

    /// Sets the lane width for bit-parallel batch replays. `1` replays
    /// every scenario in a one-lane batch; `0` selects the maximum width. Values are clamped to
    /// [`delayavf_sim::MAX_LANES`]. Batching never changes campaign results
    /// — a fidelity property the differential test suites check — it only
    /// lets up to `lanes` pending replays share each pass over the netlist.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes = if lanes == 0 {
            MAX_LANES
        } else {
            lanes.min(MAX_LANES)
        };
    }

    /// Sets the lane width for lane-packed timing-aware batch replays. `1`
    /// disables timing batching entirely (the exact scalar [`DeltaEventSim`]
    /// baseline, byte-identical reports); `0` selects the maximum width.
    /// Values are clamped to [`delayavf_sim::MAX_TIMING_LANES`]. Timing
    /// batching never changes campaign results — a fidelity property the
    /// differential test suites check — it only lets up to `timing_lanes`
    /// injections at one trace cycle share each pass over the fault cone.
    pub fn set_timing_lanes(&mut self, timing_lanes: usize) {
        self.timing_lanes = if timing_lanes == 0 {
            MAX_TIMING_LANES
        } else {
            timing_lanes.min(MAX_TIMING_LANES)
        };
    }

    /// Disables (or re-enables) the pre-simulation collapsing layer: the
    /// same-slack + structural-dominator equivalence classes over injection
    /// sites, the quiet-source certificate, and the semi-formal masking
    /// discharge of flip groups. Collapsing never changes results — a
    /// fidelity property the differential and property test suites check —
    /// it only serves provably identical injections from one representative
    /// simulation and classifies flip groups no output ever observes as
    /// Masked without replay. Disable it to run the exact per-site baseline
    /// (the `--no-collapse` escape hatch).
    pub fn set_collapse(&mut self, enabled: bool) {
        self.collapse = enabled;
    }

    /// Full two-step evaluation: is edge `edge` DelayACE in `cycle` under an
    /// extra delay of `extra` picoseconds?
    ///
    /// The resulting error group is classified at boundary `cycle + 1`: a
    /// delay fault in `cycle` corrupts the values *latched at the end* of
    /// that cycle, which are the state at the start of `cycle + 1`. This is
    /// deliberately one boundary later than the strike-model entry points
    /// ([`Injector::bit_ace`], [`Injector::group_ace`]), which flip state
    /// that is *already* latched at their `boundary` argument.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not one of the golden run's sampled cycles, is
    /// 0, or is the final cycle.
    pub fn inject(&mut self, cycle: u64, edge: EdgeId, extra: Picos) -> InjectionOutcome {
        let (statically_reachable, dynamic_set) = self.dynamically_reachable(cycle, edge, extra);
        self.classify_injection(cycle, statically_reachable, dynamic_set)
    }

    /// Step 2 packaged for campaigns that run step 1
    /// ([`Injector::dynamically_reachable`]) separately — typically to
    /// collect a whole cycle's dynamic sets first and batch their replays
    /// with [`Injector::prefill_failures`]. `inject` is exactly step 1
    /// followed by this.
    pub fn classify_injection(
        &mut self,
        cycle: u64,
        statically_reachable: usize,
        dynamic_set: Vec<DffId>,
    ) -> InjectionOutcome {
        if dynamic_set.is_empty() {
            return InjectionOutcome::masked(statically_reachable);
        }
        let class = self.group_failure(cycle + 1, &dynamic_set);
        InjectionOutcome {
            statically_reachable,
            dynamic_set,
            visible: class.is_visible(),
            class,
        }
    }

    /// Step 1 (timing-aware): the statically reachable count and the
    /// dynamically reachable set of an SDF.
    pub fn dynamically_reachable(
        &mut self,
        cycle: u64,
        edge: EdgeId,
        extra: Picos,
    ) -> (usize, Vec<DffId>) {
        assert!(cycle >= 1, "cycle 0 has no preceding settled state");
        assert!(
            cycle < self.golden.trace.num_cycles(),
            "cycle {cycle} has no successor in the golden trace"
        );

        let static_count = self.static_filter(edge, extra);
        if static_count == 0 {
            return (0, Vec::new());
        }

        // Collapsing layer: a member edge's fault is event-for-event
        // identical to the same fault on its class representative, so the
        // representative's dynamic set (computed once per cycle) is the
        // answer. The member's own static filter just passed and the class
        // criterion includes slack-table equality, so the representative's
        // would pass identically.
        self.refresh_step1_cycle(cycle);
        if self.collapse {
            let rep = self.plan().representative(edge);
            if rep != edge {
                self.stats.collapsed_edges += 1;
                return (static_count, self.collapse_rep_set(cycle, rep, extra));
            }
            if self.plan().is_representative(edge) {
                return (static_count, self.collapse_rep_set(cycle, edge, extra));
            }
        }

        let dynamic = self.timed_dynamic_set(cycle, edge, extra);
        (static_count, dynamic)
    }

    /// The toggle pre-filter, quiet-source certificate and timing-aware
    /// simulation of one injection that already passed the static filter
    /// (and, when collapsing, was already resolved to a class
    /// representative or a singleton). A kept set is served without the
    /// waveform, and counts nothing.
    fn timed_dynamic_set(&mut self, cycle: u64, edge: EdgeId, extra: Picos) -> Vec<DffId> {
        // Pre-filter 2 (§V-C): if no source feeding the faulted edge
        // toggles this cycle, no event ever crosses the edge.
        if self.toggle_filter && !self.edge_sources_toggle(cycle, edge) {
            self.stats.toggle_filtered += 1;
            return Vec::new();
        }
        if let Some(set) = self.kept_set(edge, extra) {
            return set;
        }
        let set = if self.collapse && self.quiet_source(cycle, edge) {
            Vec::new()
        } else {
            // Timing-aware simulation of the one faulty cycle, as a delta
            // against the cycle's golden waveform: only the fault's
            // divergence cone is propagated.
            self.ensure_golden_wave(cycle);
            self.stats.event_sims += 1;
            let (latched, outcome) = self
                .delta
                .latch_cycle(&self.gold, FaultSpec { edge, extra });
            self.stats.delta_events += outcome.delta_events;
            self.stats.delta_early_exits += outcome.reconverged;
            let data = self.cycle_data.as_ref().expect("ensured with the waveform");
            mismatches(latched, &data.next_state)
        };
        self.keep_set(edge, extra, &set);
        set
    }

    /// The kept set of a plain pair at the step-1 cycle, if the cycle keeps
    /// them and holds this one.
    fn kept_set(&self, edge: EdgeId, extra: Picos) -> Option<Vec<DffId>> {
        if !self.keep_step1 {
            return None;
        }
        self.step1_cache.get(&(edge, extra)).cloned()
    }

    /// Keeps a pair's waveform-derived set when the step-1 cycle keeps them.
    fn keep_set(&mut self, edge: EdgeId, extra: Picos, set: &[DffId]) {
        if self.keep_step1 {
            self.step1_cache.insert((edge, extra), set.to_vec());
        }
    }

    /// Builds the fault-free timed waveform of `cycle` unless it is already
    /// held: one build per cycle, shared by the quiet-source certificate and
    /// both delta engines.
    fn ensure_golden_wave(&mut self, cycle: u64) {
        self.ensure_cycle_data(cycle);
        let data = self.cycle_data.as_ref().expect("just ensured");
        let inputs = self.golden.trace.inputs_at(cycle);
        if self
            .gold
            .ensure(cycle, &data.prev_values, &data.new_state, inputs)
        {
            self.stats.golden_waveform_builds += 1;
        }
    }

    /// The quiet-source certificate: the fault only delays deliveries of the
    /// source net's transitions at the sink pin, so if the source has an
    /// empty transition list in the fault-free waveform of `cycle`, the
    /// faulty run is identical and the dynamic set is provably empty.
    /// Counts each certified injection as collapsed.
    fn quiet_source(&mut self, cycle: u64, edge: EdgeId) -> bool {
        self.ensure_golden_wave(cycle);
        let quiet = self
            .gold
            .transitions(self.topo.edge(edge).source)
            .is_empty();
        if quiet {
            self.stats.collapsed_edges += 1;
        }
        quiet
    }

    /// Pre-filter 1: the statically reachable count of an SDF, a binary
    /// search in the timing model's slack table. Zero means no path through
    /// the edge misses the clock, and the injection is counted as
    /// statically filtered.
    fn static_filter(&mut self, edge: EdgeId, extra: Picos) -> usize {
        let n = self
            .timing
            .statically_reachable_count(self.circuit, self.topo, edge, extra);
        if n == 0 {
            self.stats.static_filtered += 1;
        }
        n
    }

    /// The collapsing plan, built on first use.
    fn plan(&mut self) -> &CollapsePlan {
        if self.plan.is_none() {
            self.plan = Some(CollapsePlan::build(self.circuit, self.topo, self.timing));
        }
        self.plan.as_ref().expect("just built")
    }

    /// Drops the step-1 sets, and stops keeping plain pairs', when the
    /// injection cycle changes (the sets are waveform-dependent, hence
    /// cycle-scoped).
    fn refresh_step1_cycle(&mut self, cycle: u64) {
        if self.step1_cycle != Some(cycle) {
            self.step1_cache.clear();
            self.step1_cycle = Some(cycle);
            self.keep_step1 = false;
        }
    }

    /// The dynamically reachable set of a class representative this cycle,
    /// computed once per `(representative, extra)` and served to every
    /// member of the class.
    fn collapse_rep_set(&mut self, cycle: u64, rep: EdgeId, extra: Picos) -> Vec<DffId> {
        if let Some(set) = self.step1_cache.get(&(rep, extra)) {
            return set.clone();
        }
        self.stats.class_representatives += 1;
        let set = self.timed_dynamic_set(cycle, rep, extra);
        self.step1_cache.insert((rep, extra), set.clone());
        set
    }

    /// The key `edge`'s step-1 sets are kept under: its class
    /// representative when collapsing (every member's set is the
    /// representative's), else the edge itself.
    fn step1_key(&mut self, edge: EdgeId) -> EdgeId {
        if self.collapse {
            self.plan().representative(edge)
        } else {
            edge
        }
    }

    /// Seeds `cycle`'s step-1 sets with `(edge, extra, dynamic set)`
    /// results settled elsewhere (an earlier sampling round, a checkpoint)
    /// and keeps every further waveform-derived set of the cycle, until the
    /// injection cycle changes. A seeded pair that passes the static and
    /// toggle pre-filters (and the collapse redirect, which still count as
    /// usual) is served its set with no golden waveform and no simulation;
    /// [`Injector::step1_result`] reads the sets back.
    pub(crate) fn preload_step1<'s>(
        &mut self,
        cycle: u64,
        entries: impl IntoIterator<Item = (EdgeId, Picos, &'s Vec<DffId>)>,
    ) {
        self.step1_cache.clear();
        self.step1_cycle = Some(cycle);
        self.keep_step1 = true;
        for (edge, extra, set) in entries {
            let key = (self.step1_key(edge), extra);
            self.step1_cache.insert(key, set.clone());
        }
    }

    /// The dynamic set of `(edge, extra)` at `cycle` if the step-1 sets
    /// hold it: seeded, or derived from the golden waveform since. Pairs
    /// the toggle pre-filter settles are never held. Touches no counters.
    pub(crate) fn step1_result(
        &mut self,
        cycle: u64,
        edge: EdgeId,
        extra: Picos,
    ) -> Option<&Vec<DffId>> {
        if self.step1_cycle != Some(cycle) {
            return None;
        }
        let key = (self.step1_key(edge), extra);
        self.step1_cache.get(&key)
    }

    /// Whether the injector holds `cycle`'s golden waveform, so timing more
    /// pairs there builds none.
    pub(crate) fn holds_golden_wave(&self, cycle: u64) -> bool {
        self.gold.holds(cycle)
    }

    /// Forgets the held golden waveform, so whether the next query at a
    /// cycle builds one does not depend on what this injector ran before.
    pub(crate) fn forget_golden_wave(&mut self) {
        self.gold.forget();
    }

    /// Step 1 for a whole cycle's worth of injections at once: the
    /// statically reachable count and dynamically reachable set of every
    /// `(edge, extra)` pair, in input order.
    ///
    /// Pairs surviving the static and toggle pre-filters are chunked into
    /// groups of up to `timing_lanes` and each group is propagated together
    /// by [`BatchDeltaSim`] over lane-packed transition words against the
    /// cycle's golden waveform. Lanes the batch engine cannot represent
    /// retire to the scalar [`DeltaEventSim`]. With `timing_lanes <= 1` this
    /// is exactly a loop over [`Injector::dynamically_reachable`] — the
    /// byte-identical scalar escape hatch.
    ///
    /// # Panics
    ///
    /// Panics as [`Injector::dynamically_reachable`] does on unsampled,
    /// zero, or final cycles.
    pub fn dynamically_reachable_batch(
        &mut self,
        cycle: u64,
        pairs: &[(EdgeId, Picos)],
    ) -> Vec<(usize, Vec<DffId>)> {
        if self.timing_lanes <= 1 {
            return pairs
                .iter()
                .map(|&(edge, extra)| self.dynamically_reachable(cycle, edge, extra))
                .collect();
        }
        assert!(cycle >= 1, "cycle 0 has no preceding settled state");
        assert!(
            cycle < self.golden.trace.num_cycles(),
            "cycle {cycle} has no successor in the golden trace"
        );

        // Run the static filter, the collapsing layer and the per-cycle
        // toggle filter exactly as the scalar path does; only plain
        // survivors occupy batch lanes (members and representatives are
        // served through the scalar representative cache, so the per-class
        // work is identical at every lane width), and kept sets are served
        // as the scalar path serves them.
        self.refresh_step1_cycle(cycle);
        let mut results: Vec<(usize, Vec<DffId>)> = Vec::with_capacity(pairs.len());
        let mut survivors: Vec<usize> = Vec::new();
        for &(edge, extra) in pairs {
            let static_count = self.static_filter(edge, extra);
            if static_count == 0 {
                results.push((0, Vec::new()));
                continue;
            }
            if self.collapse {
                let rep = self.plan().representative(edge);
                if rep != edge {
                    self.stats.collapsed_edges += 1;
                    let set = self.collapse_rep_set(cycle, rep, extra);
                    results.push((static_count, set));
                    continue;
                }
                if self.plan().is_representative(edge) {
                    let set = self.collapse_rep_set(cycle, edge, extra);
                    results.push((static_count, set));
                    continue;
                }
            }
            if self.toggle_filter && !self.edge_sources_toggle(cycle, edge) {
                self.stats.toggle_filtered += 1;
                results.push((static_count, Vec::new()));
                continue;
            }
            if let Some(set) = self.kept_set(edge, extra) {
                results.push((static_count, set));
                continue;
            }
            if self.collapse && self.quiet_source(cycle, edge) {
                self.keep_set(edge, extra, &[]);
                results.push((static_count, Vec::new()));
                continue;
            }
            survivors.push(results.len());
            results.push((static_count, Vec::new()));
        }
        if survivors.is_empty() {
            return results;
        }

        self.ensure_golden_wave(cycle);
        // Carve lanes so no chunk carries the same edge at two *different*
        // extra delays — such pairs would be retired by the packed engine
        // and replayed scalar anyway, so routing them to separate chunks up
        // front keeps every lane on the fast path. Deterministic first-fit
        // in survivor order; results are written back through `ri`, so the
        // output order never depends on the carving.
        let mut chunks: Vec<Vec<usize>> = Vec::new();
        let mut chunk_extras: Vec<HashMap<EdgeId, Picos>> = Vec::new();
        for &ri in &survivors {
            let (edge, extra) = pairs[ri];
            let slot = (0..chunks.len()).find(|&ci| {
                chunks[ci].len() < self.timing_lanes
                    && chunk_extras[ci].get(&edge).is_none_or(|&e| e == extra)
            });
            match slot {
                Some(ci) => {
                    chunks[ci].push(ri);
                    chunk_extras[ci].insert(edge, extra);
                }
                None => {
                    chunks.push(vec![ri]);
                    chunk_extras.push(HashMap::from([(edge, extra)]));
                }
            }
        }
        for chunk in &chunks {
            let faults: Vec<FaultSpec> = chunk
                .iter()
                .map(|&ri| {
                    let (edge, extra) = pairs[ri];
                    FaultSpec { edge, extra }
                })
                .collect();
            let data = self.cycle_data.as_ref().expect("ensured with the waveform");
            self.stats.event_sims += chunk.len() as u64;
            self.stats.batched_timing_replays += 1;
            self.stats.timing_lanes_occupied += chunk.len() as u64;
            self.stats.timing_lane_slots += chunk.len() as u64;
            let outcome = self.batch_delta.latch_batch(&self.gold, &faults);
            self.stats.delta_events += outcome.delta_events;
            self.stats.delta_early_exits += outcome.reconverged;
            let mut sets = self
                .batch_delta
                .mismatch_sets(chunk.len(), &data.next_state);
            for (lane, &ri) in chunk.iter().enumerate() {
                if outcome.retired.contains(&lane) {
                    // Unbatchable scenario: replay it on the scalar delta
                    // engine, which reads the same golden waveform.
                    let (latched, o) = self.delta.latch_cycle(&self.gold, faults[lane]);
                    self.stats.delta_events += o.delta_events;
                    self.stats.delta_early_exits += o.reconverged;
                    results[ri].1 = mismatches(latched, &data.next_state);
                } else {
                    results[ri].1 = std::mem::take(&mut sets[lane]);
                }
            }
        }
        if self.keep_step1 {
            for ri in survivors {
                let (edge, extra) = pairs[ri];
                self.keep_set(edge, extra, &results[ri].1);
            }
        }
        results
    }

    /// Full two-step evaluation of a whole cycle's worth of injections:
    /// step 1 via [`Injector::dynamically_reachable_batch`], then step 2
    /// ([`Injector::classify_injection`]) per pair. Outcomes are returned in
    /// input order; a loop over [`Injector::inject`] produces the same
    /// values.
    pub fn inject_batch(&mut self, cycle: u64, pairs: &[(EdgeId, Picos)]) -> Vec<InjectionOutcome> {
        let parts = self.dynamically_reachable_batch(cycle, pairs);
        parts
            .into_iter()
            .map(|(statically_reachable, dynamic_set)| {
                self.classify_injection(cycle, statically_reachable, dynamic_set)
            })
            .collect()
    }

    /// Step 2 (timing-agnostic): is a simultaneous error in `set` at the
    /// start of `boundary` a program-visible failure (Definition 4)?
    ///
    /// `boundary` names the latch boundary whose *stored* state is
    /// corrupted. Strike-model campaigns pass the struck cycle itself;
    /// [`Injector::inject`] passes `cycle + 1` for the delay-fault model —
    /// see its docs for why the conventions differ.
    pub fn group_ace(&mut self, boundary: u64, set: &[DffId]) -> bool {
        self.group_failure(boundary, set).is_visible()
    }

    /// Like [`Injector::group_ace`] but with the SDC/DUE classification.
    pub fn group_failure(&mut self, boundary: u64, set: &[DffId]) -> FailureClass {
        if set.is_empty() {
            return FailureClass::Masked;
        }
        let mut key: Vec<DffId> = set.to_vec();
        key.sort_unstable();
        key.dedup();
        self.failure_with_flips(boundary, key)
    }

    /// Individual (particle-strike-style) ACEness of one bit flipped at the
    /// start of `boundary` — the ingredient of ORACE (Definition 5) and of
    /// the sAVF campaigns.
    pub fn bit_ace(&mut self, boundary: u64, dff: DffId) -> bool {
        self.failure_with_flips(boundary, vec![dff]).is_visible()
    }

    /// ORACE (Definition 5): true iff any member of `set` is individually
    /// ACE at `boundary`.
    pub fn or_ace(&mut self, boundary: u64, set: &[DffId]) -> bool {
        set.iter().any(|&d| {
            // Borrow-friendly loop body.
            self.bit_ace(boundary, d)
        })
    }

    /// Replays execution with `flips` applied at the start of `boundary`
    /// and classifies program visibility. Results are cached; cache hits
    /// borrow the flip set as a slice and allocate nothing.
    fn failure_with_flips(&mut self, boundary: u64, flips: Vec<DffId>) -> FailureClass {
        if let Some(&hit) = self
            .failure_cache
            .get(&boundary)
            .and_then(|m| m.get(flips.as_slice()))
        {
            self.stats.replay_cache_hits += 1;
            return hit;
        }
        if self.collapse {
            if let Some(class) = self.try_discharge(boundary, &flips) {
                self.failure_cache
                    .entry(boundary)
                    .or_default()
                    .insert(flips, class);
                return class;
            }
        }
        self.batch_replay(boundary, std::slice::from_ref(&flips))[0]
    }

    /// The semi-formal masking check: classifies the flip group as Masked
    /// without any replay when the plan or the trace's length proves the
    /// environment never observes it. Returns `None` otherwise — the caller
    /// replays the set, so a `None` never changes results.
    ///
    /// Both rules rest on the environment observing only *golden* output
    /// words (environments are deterministic in what they observe), and on
    /// [`Injector::golden_identical_class`] certifying that such a
    /// golden-trajectory run classifies as Masked.
    fn try_discharge(&mut self, boundary: u64, flips: &[DffId]) -> Option<FailureClass> {
        if !self.golden.trace.halted() {
            return None;
        }
        // End of trace: the environment's step for cycle `t` observes the
        // outputs settled at `t - 1` and its last step is for cycle
        // `n - 1`, so flips at boundary `n - 1` or later are never observed.
        let past_the_end = boundary >= self.golden.trace.num_cycles().saturating_sub(1);
        // Rule 1: no flipped bit can ever (through any number of cycles of
        // sequential propagation) influence a primary output, so the
        // environment observes the golden trajectory forever.
        let fires = past_the_end || {
            let plan = self.plan();
            flips.iter().all(|&d| !plan.influences_output(d))
        };
        // The golden-trajectory classification costs an environment run
        // over the whole trace, so it is computed only when a rule fires.
        if !fires || self.golden_identical_class()? != FailureClass::Masked {
            return None;
        }
        self.stats.formally_discharged_unace += 1;
        Some(FailureClass::Masked)
    }

    /// The classification a faulty run would receive if its environment
    /// observed exactly the golden output words until the end of the trace:
    /// advance the latest checkpoint's environment clone along the recorded
    /// outputs and classify it as a halted run. `None` when no usable
    /// checkpoint exists (a cycle-0 checkpoint cannot be advanced — the
    /// trace has no outputs before cycle 0). Memoized per injector.
    fn golden_identical_class(&mut self) -> Option<FailureClass> {
        if let Some(class) = self.golden_class {
            return class;
        }
        let golden = self.golden;
        let computed = golden
            .checkpoints
            .iter()
            .next_back()
            .filter(|(_, cp)| cp.cycle >= 1)
            .map(|(_, cp)| (cp.cycle, cp.env.clone()));
        let computed = computed.map(|(mut env_at, mut env)| {
            self.advance_env(&mut env, &mut env_at, golden.trace.num_cycles());
            self.classify_halted(&env)
        });
        self.golden_class = Some(computed);
        computed
    }

    /// Classification when the faulty run has halted on its own.
    fn classify_halted(&self, env: &E) -> FailureClass {
        if env.failed_abnormally() {
            FailureClass::Due
        } else if env.program_output() != self.golden.trace.program_output() {
            FailureClass::Sdc
        } else {
            FailureClass::Masked
        }
    }

    /// Classification when the cycle budget ran out: the golden run halted
    /// but the faulty one has not — a DUE (hang). If the golden run itself
    /// never halted, fall back to an output comparison at the budget
    /// boundary.
    fn classify_budget_exhausted(&self, env: &E) -> FailureClass {
        if self.golden.trace.halted() {
            FailureClass::Due
        } else if env.program_output() != self.golden.trace.program_output() {
            FailureClass::Sdc
        } else {
            FailureClass::Masked
        }
    }

    /// Clones and advances the golden environment to `boundary` without
    /// touching any simulator state: the trace already certifies the
    /// circuit side of any skipped golden cycle, so the environment can be
    /// stepped directly on the recorded output words.
    fn resolve_env(&mut self, boundary: u64) -> E {
        if let Some(cp) = self.golden.checkpoints.get(&boundary) {
            return cp.env.clone();
        }
        let cp = self
            .golden
            .checkpoints
            .get(&(boundary - 1))
            .unwrap_or_else(|| {
                panic!(
                    "no checkpoint at or before boundary {boundary}; inject only at sampled cycles"
                )
            });
        let mut env = cp.env.clone();
        let mut scratch = vec![0u64; self.circuit.input_ports().len()];
        env.step(cp.cycle, &cp.prev_outputs, &mut scratch);
        debug_assert_eq!(
            scratch.as_slice(),
            self.golden.trace.inputs_at(cp.cycle),
            "advanced golden environment reproduces the recorded inputs"
        );
        env
    }

    /// Batch-replays every not-yet-cached flip set in `sets` at `boundary`,
    /// up to `lanes` per batch, filling the failure cache so later queries
    /// ([`Injector::group_failure`], [`Injector::bit_ace`], ...) are hits.
    /// Campaigns call this ahead of their per-site classification sweep;
    /// skipping it never changes results, since a cache miss replays its
    /// flip set as a one-lane batch. A no-op at `lanes <= 1`, where every
    /// query replays on demand: ORACE stops at the first ACE bit, so the
    /// query-by-query run replays exactly the sets a one-at-a-time
    /// analysis needs.
    ///
    /// Results are bit-for-bit identical to scalar replays: each lane keeps
    /// the decision sequence of a cycle-by-cycle replay (halt, convergence
    /// early-exit, budget, step) and stays in the batch until it is
    /// classified — on the recorded golden inputs while its outputs match
    /// the golden words, on its own environment after they diverge or once
    /// it outlives the trace.
    pub fn prefill_failures<I>(&mut self, boundary: u64, sets: I)
    where
        I: IntoIterator<Item = Vec<DffId>>,
    {
        if self.lanes <= 1 {
            return;
        }
        let mut pending: Vec<Vec<DffId>> = Vec::new();
        let mut seen: HashSet<Vec<DffId>> = HashSet::new();
        for set in sets {
            let mut key = set;
            key.sort_unstable();
            key.dedup();
            if key.is_empty() || self.failure_settled(boundary, &key) {
                continue;
            }
            if seen.insert(key.clone()) {
                pending.push(key);
            }
        }
        // Masking discharges run before lane chunking, so discharged sets
        // never occupy lanes — exactly the sets a query-by-query run
        // discharges, which keeps every counter lane-width invariant. Every
        // other set goes straight to the batch replay.
        if self.collapse {
            let mut kept = Vec::with_capacity(pending.len());
            for set in pending {
                match self.try_discharge(boundary, &set) {
                    Some(class) => {
                        self.failure_cache
                            .entry(boundary)
                            .or_default()
                            .insert(set, class);
                    }
                    None => kept.push(set),
                }
            }
            pending = kept;
        }
        for chunk in pending.chunks(self.lanes) {
            self.batch_replay(boundary, chunk);
        }
    }

    /// Replays one batch of up to `lanes` normalized, uncached flip sets at
    /// `boundary`, caches their classifications and returns them in chunk
    /// order.
    ///
    /// Lanes that need a private environment while the batch already holds
    /// [`PRIVATE_ENV_CAP`] of them are parked and finished afterwards in
    /// follow-up batches, one per park boundary. A resumed lane rebuilds
    /// its environment by advancing the golden one along the recorded
    /// outputs to its park boundary, which is exact because the lane
    /// followed the golden trajectory until then; its own step count and
    /// decisions are unchanged, so only `parked_lanes` records the detour.
    fn batch_replay(&mut self, boundary: u64, chunk: &[Vec<DffId>]) -> Vec<FailureClass> {
        self.stats.batched_replays += 1;
        self.stats.lanes_occupied += chunk.len() as u64;
        self.stats.lane_slots += chunk.len() as u64;
        self.stats.replays += chunk.len() as u64;
        let mut classes = vec![FailureClass::Masked; chunk.len()];
        let lanes = chunk
            .iter()
            .enumerate()
            .map(|(id, flips)| (id, flips.clone(), None))
            .collect();
        let shared = self.resolve_env(boundary);
        let mut parked = self.run_batch(boundary, shared, lanes, &mut classes);
        self.stats.parked_lanes += parked.len() as u64;
        parked.sort_by_key(|p| (p.boundary, p.id));
        for group in parked.chunk_by(|a, b| a.boundary == b.boundary) {
            let at = group[0].boundary;
            let mut env = self.resolve_env(boundary);
            self.advance_env(&mut env, &mut boundary.clone(), at);
            for part in group.chunks(private_env_cap()) {
                let lanes = part
                    .iter()
                    .map(|p| {
                        let own = PrivateEnv {
                            env: env.clone(),
                            outputs: p.outputs.clone(),
                        };
                        (p.id, p.flips.clone(), Some(own))
                    })
                    .collect();
                let again = self.run_batch(at, env.clone(), lanes, &mut classes);
                debug_assert!(again.is_empty(), "resumed lanes bring their environments");
            }
        }
        let map = self.failure_cache.entry(boundary).or_default();
        for (set, &class) in chunk.iter().zip(&classes) {
            map.insert(set.clone(), class);
        }
        classes
    }

    /// Runs one batch from `boundary` until every lane is classified into
    /// `classes` (indexed by lane id) or parked; returns the parked lanes.
    /// `shared` is the golden-trajectory environment at `boundary`, which
    /// serves every lane without a private one.
    ///
    /// Each cycle, every live lane takes the decisions of a cycle-by-cycle
    /// replay in order: halted; converged (state equal to the golden state,
    /// environment fingerprint and pending outputs golden, up to and
    /// including the trace's last boundary); cycle budget spent; step.
    fn run_batch(
        &mut self,
        boundary: u64,
        mut shared: E,
        start: Vec<(usize, Vec<DffId>, Option<PrivateEnv<E>>)>,
        classes: &mut [FailureClass],
    ) -> Vec<Parked> {
        let trace = &self.golden.trace;
        let n = trace.num_cycles();
        let limit = n + self.due_slack;
        let cap = private_env_cap();
        let flips: Vec<Vec<DffId>> = start.iter().map(|(_, f, _)| f.clone()).collect();
        self.batch.begin(boundary, &flips, trace);
        let (mut ids, mut own): (Vec<usize>, Vec<Option<PrivateEnv<E>>>) =
            start.into_iter().map(|(id, _, p)| (id, p)).unzip();
        let mut live = LaneMask::prefix(ids.len());
        let mut shared_at = boundary;
        let mut parked = Vec::new();
        let mut out_div = LaneMask::ZERO;
        let mut inputs = vec![0u64; self.circuit.input_ports().len()];
        loop {
            let cyc = self.batch.cycle();
            let settled = if self.early_exit && cyc <= n {
                !self.batch.divergence_mask()
            } else {
                LaneMask::ZERO
            };
            // A lane needs its own environment from here on if its outputs
            // left the golden words in the last step (it observes them
            // now), or if it steps on past the end of the trace.
            let mut needs = out_div & !with_env(&own);
            if cyc == n && !trace.halted() && cyc < limit {
                needs = needs | (live & !settled & !with_env(&own));
            }
            let mut done = LaneMask::ZERO;
            let mut held = own.iter().flatten().count();
            for lane in iter_lanes(needs) {
                let outputs = self.batch.lane_outputs(lane, trace);
                if held == cap {
                    let flips = self.batch.lane_divergence(lane, trace);
                    parked.push(Parked {
                        id: ids[lane],
                        boundary: cyc,
                        flips,
                        outputs,
                    });
                    done = done | LaneMask::lane_mask(lane);
                } else {
                    self.advance_env(&mut shared, &mut shared_at, cyc);
                    let env = shared.clone();
                    own[lane] = Some(PrivateEnv { env, outputs });
                    held += 1;
                }
            }
            let private = with_env(&own);
            for lane in iter_lanes(live & private) {
                let p = own[lane].as_ref().expect("private lane");
                classes[ids[lane]] = if p.env.halted() {
                    self.classify_halted(&p.env)
                } else if settled.get(lane)
                    && p.env.fingerprint() == trace.fingerprint_at(cyc)
                    && p.outputs == trace.outputs_at(cyc - 1)
                {
                    FailureClass::Masked
                } else if cyc >= limit {
                    self.classify_budget_exhausted(&p.env)
                } else {
                    continue;
                };
                done = done | LaneMask::lane_mask(lane);
            }
            // Lanes on the shared golden-trajectory environment: it is
            // halted only at the end of a halted recording, and their
            // fingerprint and pending outputs are golden by construction.
            let golden = live & !private & !done;
            let halted = cyc == n && trace.halted();
            for lane in iter_lanes(if halted || cyc >= limit {
                golden
            } else {
                golden & settled
            }) {
                classes[ids[lane]] = if !halted && settled.get(lane) {
                    FailureClass::Masked
                } else {
                    self.advance_env(&mut shared, &mut shared_at, n);
                    if halted {
                        self.classify_halted(&shared)
                    } else {
                        self.classify_budget_exhausted(&shared)
                    }
                };
                done = done | LaneMask::lane_mask(lane);
            }
            live = live & !done;
            if !live.any() {
                break;
            }
            if cyc == n {
                self.stats.full_replay_fallbacks += u64::from(live.count_ones());
            }
            if done.any() {
                for lane in iter_lanes(done) {
                    own[lane] = None;
                }
                match self.batch.narrow(live) {
                    Some(keep) => {
                        ids = keep.iter().map(|&l| ids[l]).collect();
                        own = keep.iter().map(|&l| own[l].take()).collect();
                        live = LaneMask::prefix(keep.len());
                    }
                    None => self.batch.clear_lanes(done),
                }
            }
            for (lane, p) in own.iter_mut().enumerate() {
                if let Some(p) = p {
                    inputs.fill(0);
                    p.env.step(cyc, &p.outputs, &mut inputs);
                    self.batch.set_lane_inputs(lane, &inputs, trace);
                }
            }
            out_div = self.batch.step(trace) & live;
            self.stats.replay_cycles += u64::from(live.count_ones());
            for (lane, p) in own.iter_mut().enumerate() {
                if let Some(p) = p {
                    p.outputs = self.batch.lane_outputs(lane, trace);
                }
            }
        }
        self.stats.gates_evaluated += self.batch.gates_evaluated();
        parked
    }

    /// Advances the shared golden-trajectory environment from boundary
    /// `*env_at` to `target`, feeding it the recorded output words.
    fn advance_env(&mut self, env: &mut E, env_at: &mut u64, target: u64) {
        let trace = &self.golden.trace;
        trace.advance_env(env, *env_at, target, &mut self.env_scratch);
        *env_at = target.max(*env_at);
    }

    /// True when at least one flip-flop or primary input in the fan-in cone
    /// of the edge's source net changes value entering `cycle`.
    fn edge_sources_toggle(&mut self, cycle: u64, edge: EdgeId) -> bool {
        let source = self.topo.edge(edge).source;
        let (dffs, input_nets) = match self.fanin_cache.get(&source) {
            Some(v) => v.clone(),
            None => {
                let v = self.topo.fanin_sources(self.circuit, &[source]);
                self.fanin_cache.insert(source, v.clone());
                v
            }
        };
        let trace = &self.golden.trace;
        let prev = trace.state_at(cycle - 1);
        let cur = trace.state_at(cycle);
        for d in dffs {
            let i = d.index();
            let a = (prev[i / 64] >> (i % 64)) & 1;
            let b = (cur[i / 64] >> (i % 64)) & 1;
            if a != b {
                return true;
            }
        }
        let prev_in = trace.inputs_at(cycle - 1);
        let cur_in = trace.inputs_at(cycle);
        for net in input_nets {
            let (port, bit) = self.input_net_pos[&net];
            if (prev_in[port] >> bit) & 1 != (cur_in[port] >> bit) & 1 {
                return true;
            }
        }
        false
    }

    /// Reconstructs (and caches) the golden per-cycle context shared by
    /// every injection at `cycle`: the settled net values of `cycle - 1`
    /// plus the state words around the boundary. Campaigns call this ahead
    /// of their per-cycle edge loop so the golden-settle cost can be timed
    /// as its own phase; injection entry points fall back to it lazily, so
    /// skipping the warm-up never changes results. Touches no counters.
    pub fn warm_cycle_data(&mut self, cycle: u64) {
        self.ensure_cycle_data(cycle);
    }

    /// Removes every cached classification at `boundary` and returns them
    /// sorted by flip set — the deterministic order checkpoint payloads are
    /// serialized in.
    pub fn take_failures(&mut self, boundary: u64) -> Vec<(Vec<DffId>, FailureClass)> {
        let mut entries: Vec<(Vec<DffId>, FailureClass)> = self
            .failure_cache
            .remove(&boundary)
            .map(|m| m.into_iter().collect())
            .unwrap_or_default();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Whether the failure cache already holds the class of the normalized
    /// (sorted, deduplicated) flip set `set` at `boundary`, so querying it
    /// would be a cache hit. Touches no counters.
    pub fn failure_settled(&self, boundary: u64, set: &[DffId]) -> bool {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "normalized flip set");
        self.failure_cache
            .get(&boundary)
            .is_some_and(|m| m.contains_key(set))
    }

    /// Seeds the failure cache at `boundary` with classifications settled
    /// elsewhere (an earlier sampling round, a checkpoint), so queries for
    /// them are cache hits. Entries must be normalized (sorted,
    /// deduplicated) flip sets — which [`Injector::take_failures`]
    /// guarantees.
    pub fn preload_failures<'s>(
        &mut self,
        boundary: u64,
        entries: impl IntoIterator<Item = (&'s Vec<DffId>, &'s FailureClass)>,
    ) {
        let map = self.failure_cache.entry(boundary).or_default();
        for (set, &class) in entries {
            debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "normalized flip set");
            map.insert(set.clone(), class);
        }
    }

    fn ensure_cycle_data(&mut self, cycle: u64) {
        if self.cycle_data.as_ref().is_some_and(|d| d.cycle == cycle) {
            return;
        }
        let trace = &self.golden.trace;
        let num_dffs = self.circuit.num_dffs();
        // The settled values of `cycle - 1`, read off the trace's shared
        // golden settle cache.
        let block = trace.golden_block(self.circuit, self.topo, cycle - 1);
        let sh = (cycle - 1) % 64;
        let prev_values = block.iter().map(|w| (w >> sh) & 1 == 1).collect();
        self.cycle_data = Some(CycleData {
            cycle,
            prev_values,
            new_state: trace.state_bits_at(cycle, num_dffs),
            next_state: trace.state_bits_at(cycle + 1, num_dffs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::golden::prepare_golden;
    use crate::testenv::ObservingEnv;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_sim::ConstEnvironment;
    use delayavf_timing::TechLibrary;

    /// Test-only override of the private-environment cap for every replay
    /// batch run on the calling thread, so tests can force lanes to park.
    pub(super) mod env_cap {
        use std::cell::Cell;

        thread_local! {
            static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
        }

        /// Runs `f` with the cap set to `cap` (at least 1) on this thread.
        pub(crate) fn with<R>(cap: usize, f: impl FnOnce() -> R) -> R {
            assert!(cap >= 1, "a batch needs room for one environment");
            OVERRIDE.with(|o| o.set(Some(cap)));
            let r = f();
            OVERRIDE.with(|o| o.set(None));
            r
        }

        pub(in crate::injector) fn get() -> Option<usize> {
            OVERRIDE.with(Cell::get)
        }
    }

    /// A 4-bit accumulator with a parity check: the parity register is a
    /// "detector" — flipping accumulator bits changes outputs (visible),
    /// but the circuit has no feedback correction.
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
    fn zero_delay_is_never_delay_ace() {
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![3]);
        let golden = prepare_golden(&c, &topo, &env, 16, 6);
        let mut inj = Injector::new(&c, &topo, &timing, &golden, 100);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        for &cycle in &golden.sampled_cycles {
            if cycle + 1 >= golden.trace.num_cycles() {
                continue;
            }
            for &e in &edges {
                let out = inj.inject(cycle, e, 0);
                assert!(!out.visible, "no fault, no failure");
                assert!(out.dynamic_set.is_empty());
            }
        }
        assert!(inj.stats.static_filtered > 0);
    }

    #[test]
    fn huge_delay_on_critical_edge_is_delay_ace() {
        // The observing environment logs the accumulator outputs, so a
        // corrupted accumulator produces a program-visible failure.
        let (c, topo, timing) = fixture();
        let env = ObservingEnv::new(3, 14);
        let golden = prepare_golden(&c, &topo, &env, 100, 6);
        let mut inj = Injector::new(&c, &topo, &timing, &golden, 20);
        let edges = topo.structure_edges(&c, "adder").unwrap();
        let clock = timing.clock_period();
        let mut any_visible = false;
        for &cycle in &golden.sampled_cycles {
            // Errors in the final cycles are never observed by the
            // environment (nothing reads the last outputs), so only assert
            // strictly-interior cycles.
            if cycle + 2 >= golden.trace.num_cycles() {
                continue;
            }
            for &e in &edges {
                let out = inj.inject(cycle, e, clock);
                if !out.dynamic_set.is_empty() {
                    // An accumulator never forgets a corrupted bit.
                    assert!(out.visible);
                    any_visible = true;
                }
            }
        }
        assert!(any_visible, "some injection corrupts the accumulator");
        assert!(inj.stats.event_sims > 0);
    }

    #[test]
    fn group_ace_of_empty_set_is_false() {
        let (c, topo, timing) = fixture();
        let env = ConstEnvironment::new(vec![1]);
        let golden = prepare_golden(&c, &topo, &env, 12, 4);
        let mut inj = Injector::new(&c, &topo, &timing, &golden, 50);
        assert!(!inj.group_ace(2, &[]));
    }

    #[test]
    fn bit_flips_in_an_accumulator_are_ace() {
        let (c, topo, timing) = fixture();
        let env = ObservingEnv::new(1, 10);
        let golden = prepare_golden(&c, &topo, &env, 100, 4);
        let mut inj = Injector::new(&c, &topo, &timing, &golden, 50);
        let cycle = golden.sampled_cycles[1];
        for (d, _) in c.dffs() {
            assert!(inj.bit_ace(cycle, d), "accumulator bit {d} is ACE");
        }
        // Cache works: same query again costs no replay.
        let replays = inj.stats.replays;
        let _ = inj.bit_ace(cycle, c.dffs().next().unwrap().0);
        assert_eq!(inj.stats.replays, replays);
        assert!(inj.stats.replay_cache_hits > 0);
    }

    /// Parking is invisible in results: on the real core, an md5 ALU sweep
    /// and an sAVF campaign report and count at private-environment caps 1
    /// and 2 exactly what they do at the default cap, apart from
    /// `parked_lanes` itself and `gates_evaluated` (which counts per batch,
    /// and resumed lanes run in batches of their own) — and lanes do park.
    #[test]
    fn parked_lanes_change_nothing_but_their_counters() {
        use crate::campaign::{
            delay_avf_campaign_with_stats, savf_campaign_with_stats, CampaignConfig, ReplayOptions,
        };
        use crate::golden::prepare_golden_seeded;
        use crate::sampling::sample_edges;
        use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
        use delayavf_workloads::{Kernel, Scale};

        let core = build_core(CoreConfig::default());
        let c = &core.circuit;
        let topo = Topology::new(c);
        let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
        let workload = Kernel::Md5.build(Scale::Tiny);
        let program = workload.assemble().expect("md5 assembles");
        let env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);
        let golden = prepare_golden_seeded(c, &topo, &env, workload.max_cycles, 12, 7);
        let edges = sample_edges(&topo.structure_edges(c, "alu").unwrap(), 240, 7);
        let dffs: Vec<DffId> = c.structure("lsu").unwrap().dffs().to_vec();
        let config = CampaignConfig {
            delay_fractions: (1..=9).map(|i| f64::from(i) / 10.0).collect(),
            compute_orace: true,
            due_slack: 2_000,
            threads: 1,
            ..CampaignConfig::default()
        };
        let run = || {
            let sweep = delay_avf_campaign_with_stats(c, &topo, &timing, &golden, &edges, &config);
            let opts = ReplayOptions::new(config.due_slack, 1);
            let savf = savf_campaign_with_stats(c, &topo, &timing, &golden, &dffs, opts);
            (sweep, savf)
        };
        let without_batch_counters = |mut s: InjectorStats| {
            s.parked_lanes = 0;
            s.gates_evaluated = 0;
            s
        };
        let ((base_rows, base_sweep), (base_savf, base_savf_stats)) = run();
        assert!(base_savf_stats.replays > 0, "the strikes replay");
        for cap in [1, 2] {
            let ((rows, sweep), (savf, savf_stats)) = env_cap::with(cap, run);
            assert_eq!(rows, base_rows, "sweep rows at cap {cap}");
            assert_eq!(savf, base_savf, "sAVF at cap {cap}");
            assert_eq!(
                without_batch_counters(sweep),
                without_batch_counters(base_sweep),
                "sweep counters at cap {cap}"
            );
            assert_eq!(
                without_batch_counters(savf_stats),
                without_batch_counters(base_savf_stats),
                "sAVF counters at cap {cap}"
            );
            assert!(sweep.parked_lanes > 0, "sweep lanes park at cap {cap}");
            assert!(
                savf_stats.parked_lanes > 0,
                "strike lanes park at cap {cap}"
            );
        }
    }

    /// The accumulator fixture plus a shadow register that copies the low
    /// accumulator bit and that nothing reads: no flip of it ever reaches
    /// an output.
    fn shadowed_fixture() -> (delayavf_netlist::Circuit, Topology, TimingModel) {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let acc = b.reg_word("acc", 4, 0);
        let shadow = b.reg("shadow", false);
        let next = b.add(&acc.q(), &step);
        b.drive_word(&acc, &next);
        b.drive(shadow, acc.q().bit(0));
        b.output_word("acc", &acc.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        (c, topo, timing)
    }

    /// The masking discharge's two rules on a halted run. A flip outside
    /// the output-influence closure is Masked with no replay (Rule 1), the
    /// class a replay with collapsing off gives it too. A flip at the
    /// trace's last boundary is Masked by the end-of-trace rule although
    /// its bit reaches the output, which the same flip earlier shows.
    #[test]
    fn masking_discharge_settles_unobservable_flips_without_replay() {
        let (c, topo, timing) = shadowed_fixture();
        let env = ObservingEnv::new(3, 14);
        let golden = prepare_golden(&c, &topo, &env, 100, 6);
        assert!(golden.trace.halted(), "the rules need a halted golden run");
        let by_name = |name: &str| c.dffs().find(|(_, d)| d.name() == name).unwrap().0;
        let shadow = by_name("shadow");
        let boundary = golden.sampled_cycles[1];

        let mut inj = Injector::new(&c, &topo, &timing, &golden, 20);
        assert_eq!(inj.group_failure(boundary, &[shadow]), FailureClass::Masked);
        assert_eq!(inj.stats.formally_discharged_unace, 1);
        assert_eq!(inj.stats.replays, 0, "Rule 1 runs no replay");

        let mut plain = Injector::new(&c, &topo, &timing, &golden, 20);
        plain.set_collapse(false);
        assert_eq!(
            plain.group_failure(boundary, &[shadow]),
            FailureClass::Masked
        );
        assert_eq!(plain.stats.replays, 1, "collapse off replays the set");
        assert_eq!(plain.stats.formally_discharged_unace, 0);

        let acc0 = c.dffs().next().unwrap().0;
        assert_ne!(acc0, shadow);
        assert!(inj.group_failure(boundary, &[acc0]).is_visible());
        assert_eq!(inj.stats.replays, 1, "an observed flip is replayed");
        let last = golden.trace.num_cycles() - 1;
        assert_eq!(inj.group_failure(last, &[acc0]), FailureClass::Masked);
        assert_eq!(inj.stats.formally_discharged_unace, 2);
        assert_eq!(inj.stats.replays, 1, "the end-of-trace rule runs no replay");
    }

    #[test]
    fn ace_interference_can_cancel() {
        // A circuit whose output is the XOR of two registers: flipping both
        // registers at once leaves the XOR unchanged (interference), while
        // each individual flip is visible.
        let mut b = CircuitBuilder::new();
        let inp = b.input("in");
        let r1 = b.reg("r1", false);
        let r2 = b.reg("r2", false);
        b.drive(r1, inp);
        let r1q = r1.q();
        b.drive(r2, r1q);
        let x = b.xor(r1.q(), r2.q());
        b.output("x", x);
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        let env = ConstEnvironment::new(vec![1]);
        let golden = prepare_golden(&c, &topo, &env, 10, 4);
        let mut inj = Injector::new(&c, &topo, &timing, &golden, 6);
        let cycle = golden.sampled_cycles[1];
        let dffs: Vec<DffId> = c.dffs().map(|(d, _)| d).collect();
        // Individually both flips die out after propagating through the
        // 2-deep pipeline... but they do change the XOR output transiently.
        // The ConstEnvironment has no program output, so visibility is
        // decided purely by state reconvergence — single flips reconverge
        // (the pipeline flushes), and the pair reconverges too. What cannot
        // be masked is a flip in a loop-free pipeline: verify reconvergence.
        assert!(!inj.group_ace(cycle, &dffs), "pipeline flushes both errors");
        assert!(
            !inj.bit_ace(cycle, dffs[0]),
            "pipeline flushes single error"
        );
    }
}
