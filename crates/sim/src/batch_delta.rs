//! Lane-packed incremental timing-aware simulation: the batched counterpart
//! of [`DeltaEventSim`](crate::DeltaEventSim).
//!
//! A delay-sweep campaign injects hundreds of `(edge, extra)` scenarios at
//! the *same* trace cycle, and every one of them is a delta against the
//! same cached golden waveform. The scalar
//! [`DeltaEventSim`](crate::DeltaEventSim) walks each scenario's fault cone
//! separately, re-reading the same golden transition streams once per
//! scenario. [`BatchDeltaSim`] walks the **union** cone once: per-net
//! transition lists carry lane-packed words — `(time, word)` with one bit
//! per scenario — so a gate inside the cones of thirty scenarios is
//! evaluated once per merged time-step instead of thirty times.
//!
//! Mechanics, mirroring the scalar engine step for step:
//!
//! * the golden waveform is the caller's [`GoldenWave`], the same build the
//!   scalar engine reads;
//! * each lane's fault seeds at its struck edge's sink. A struck gate pin
//!   reads **two** streams: the common stream (the source's packed faulty
//!   waveform, or golden when the source never diverged) masked to the
//!   non-striking lanes, and a special stream — the *golden* source
//!   waveform shifted by `delay + extra` — masked to the striking lanes
//!   (a lane's own fault edge source is upstream of its cone, hence golden
//!   for that lane by construction);
//! * gates are evaluated frontier-levelized; the packed output waveform is
//!   compared per lane against the cached golden waveform, giving a
//!   per-lane divergence mask. Lanes whose projection reconverges simply
//!   drop out of the mask (the independent per-lane early-exit); a gate
//!   whose mask is empty is pruned exactly like the scalar engine;
//! * flip-flops outside every lane's cone latch broadcast golden values
//!   for free, and diverged nets patch them with masked word updates.
//!
//! Because every packed operation is lane-independent, lane `L`'s
//! projection of the batch is *defined* to be the scalar delta simulation
//! of lane `L`'s fault — the latched words are bit-identical to
//! [`DeltaEventSim::latch_cycle`](crate::DeltaEventSim::latch_cycle) per
//! lane (pinned by `crates/sim/tests/prop_cross_engine.rs`).
//!
//! **Lane retirement.** The one shape the packed representation cannot
//! carry is two lanes striking the *same gate pin* with *different* extra
//! delays (it would need a second special stream per pin). When a batch
//! contains such scenarios, the first extra keeps its lanes and later
//! conflicting lanes are *retired*: reported in
//! [`BatchDeltaOutcome::retired`] for the caller to replay on the scalar
//! engine. Production sweeps batch distinct edges at one fraction, so
//! retirement never triggers there; it is exercised by the cross-engine
//! fuzz suite.
//!
//! Batches of at most 64 lanes ride plain `u64` words; wider batches step
//! up to a 4×`u64` ([`W256`]) or 8×`u64` ([`W512`]) carrier (up to
//! [`MAX_TIMING_LANES`]) selected per batch from its lane count. Gate
//! evaluation walks the netlist's levelized
//! struct-of-arrays [`EvalPlan`](delayavf_netlist::EvalPlan) so the hot
//! loop reads packed opcode/operand tables instead of per-gate structs.

use delayavf_netlist::{Circuit, Consumer, DffId, GateId, NetId, Topology};
use delayavf_timing::{Picos, TimingModel};

use crate::delta::{value_at, GoldenWave};
use crate::event::FaultSpec;
use crate::pack::{eval_lanes, LaneWord, W256, W512};

/// The widest timing batch: 512 scenarios on the 8×`u64` wide-word path.
pub const MAX_TIMING_LANES: usize = 512;

/// Work and retirement accounting for one [`BatchDeltaSim::latch_batch`]
/// call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchDeltaOutcome {
    /// Merged waveform time-steps processed while evaluating union-cone
    /// gates (each step evaluates every lane at once).
    pub delta_events: u64,
    /// Gates whose packed output waveform reconverged with the cached
    /// golden waveform on every lane and were pruned from the frontier.
    pub reconverged: u64,
    /// Lanes whose scenario could not be batched (a same-pin strike with a
    /// conflicting extra delay); their latched words are golden and the
    /// caller must replay them on the scalar engine.
    pub retired: Vec<usize>,
}

/// A lane-packed transition list: `(time, word)` with strictly increasing
/// times; consecutive words differ in at least one lane. Lane `L`'s
/// projection is a canonical scalar waveform.
type WWave<W> = Vec<(Picos, W)>;

/// Appends a packed transition, keeping the list canonical (the lane-packed
/// analogue of the scalar `push_tx`).
#[inline]
fn push_tx_w<W: LaneWord>(tx: &mut WWave<W>, base: W, t: Picos, v: W) {
    if let Some(&(lt, _)) = tx.last() {
        if lt == t {
            let prev = if tx.len() >= 2 {
                tx[tx.len() - 2].1
            } else {
                base
            };
            if prev == v {
                tx.pop();
            } else {
                tx.last_mut().expect("nonempty").1 = v;
            }
            return;
        }
    }
    let cur = tx.last().map_or(base, |&(_, v)| v);
    if cur != v {
        tx.push((t, v));
    }
}

/// The packed value of a lane-packed transition list at time `at` (`None` =
/// before the cycle starts, i.e. the base word).
#[inline]
fn value_at_w<W: LaneWord>(tx: &[(Picos, W)], base: W, at: Option<Picos>) -> W {
    let Some(at) = at else { return base };
    let idx = tx.partition_point(|&(t, _)| t <= at);
    if idx == 0 {
        base
    } else {
        tx[idx - 1].1
    }
}

/// One input-pin stream of a frontier gate: either a lane-packed faulty
/// waveform or a scalar golden waveform broadcast on application, applied
/// under a lane mask after a pure time shift.
enum Tx<'w, W> {
    Packed(&'w [(Picos, W)]),
    Golden(&'w [(Picos, bool)]),
}

struct Stream<'w, W> {
    tx: Tx<'w, W>,
    mask: W,
    shift: Picos,
    cursor: usize,
    slot: usize,
}

impl<W: LaneWord> Stream<'_, W> {
    #[inline]
    fn peek_t(&self) -> Option<Picos> {
        match &self.tx {
            Tx::Packed(s) => s.get(self.cursor).map(|&(t, _)| t),
            Tx::Golden(s) => s.get(self.cursor).map(|&(t, _)| t),
        }
    }

    #[inline]
    fn word(&self) -> W {
        match &self.tx {
            Tx::Packed(s) => s[self.cursor].1,
            Tx::Golden(s) => W::splat(s[self.cursor].1),
        }
    }
}

/// The width-generic propagation core: all per-net scratch for one lane
/// width. [`BatchDeltaSim`] instantiates it at `u64` and (lazily, only when
/// a batch needs them) at [`W256`] and [`W512`].
#[derive(Clone, Debug)]
struct WaveCore<W: LaneWord> {
    /// Epoch-stamped packed faulty waveforms of diverged nets.
    fault_tx: Vec<WWave<W>>,
    fault_epoch: Vec<u64>,
    sched_epoch: Vec<u64>,
    /// Epoch-stamped per-edge strike bookkeeping: which lanes strike the
    /// edge and (for gate pins) the one batchable extra delay.
    strike_epoch: Vec<u64>,
    strike_mask: Vec<W>,
    strike_extra: Vec<Picos>,
    epoch: u64,
    /// Union-frontier worklist, bucketed by combinational level.
    buckets: Vec<Vec<GateId>>,
    max_sched_level: usize,
    /// Scratch for the packed gate output waveform under evaluation.
    wave: WWave<W>,
    /// Lane-packed latched value per flip-flop — valid only where
    /// `latch_epoch` matches the current epoch; every other flip-flop
    /// latches `latch_base` on all lanes. Lazily materializing the words
    /// keeps the per-batch latch cost proportional to the union cone's
    /// fed flip-flops, not to the whole state vector.
    latch_out: Vec<W>,
    latch_epoch: Vec<u64>,
    /// Golden latched value per flip-flop for the current batch.
    latch_base: Vec<bool>,
}

impl<W: LaneWord> WaveCore<W> {
    fn new(circuit: &Circuit, topo: &Topology) -> Self {
        WaveCore {
            fault_tx: vec![Vec::new(); circuit.num_nets()],
            fault_epoch: vec![0; circuit.num_nets()],
            sched_epoch: vec![0; circuit.num_gates()],
            strike_epoch: vec![0; topo.edges().len()],
            strike_mask: vec![W::ZERO; topo.edges().len()],
            strike_extra: vec![0; topo.edges().len()],
            epoch: 0,
            buckets: vec![Vec::new(); topo.num_levels()],
            max_sched_level: 0,
            wave: Vec::new(),
            latch_out: vec![W::ZERO; circuit.num_dffs()],
            latch_epoch: vec![0; circuit.num_dffs()],
            latch_base: vec![false; circuit.num_dffs()],
        }
    }

    /// Lane-packed latched word of flip-flop `fi`, materialized from the
    /// golden base on first touch in this batch.
    #[inline]
    fn latch_word(&mut self, fi: usize) -> &mut W {
        if self.latch_epoch[fi] != self.epoch {
            self.latch_epoch[fi] = self.epoch;
            self.latch_out[fi] = W::splat(self.latch_base[fi]);
        }
        &mut self.latch_out[fi]
    }

    #[inline]
    fn schedule(&mut self, topo: &Topology, gate: GateId) {
        if self.sched_epoch[gate.index()] != self.epoch {
            self.sched_epoch[gate.index()] = self.epoch;
            let level = topo.gate_level(gate) as usize;
            if self.max_sched_level == self.buckets.len() {
                self.max_sched_level = level;
            } else {
                self.max_sched_level = self.max_sched_level.max(level);
            }
            self.buckets[level].push(gate);
        }
    }

    fn latch_batch(
        &mut self,
        topo: &Topology,
        timing: &TimingModel,
        gold: &GoldenWave<'_>,
        faults: &[FaultSpec],
        outcome: &mut BatchDeltaOutcome,
    ) {
        debug_assert!(faults.len() <= W::LANES);
        self.epoch += 1;
        self.max_sched_level = self.buckets.len();
        let deadline = timing.clock_period().saturating_sub(timing.setup());
        self.latch_base.copy_from_slice(&gold.latch);

        // Seed every lane at its struck edge's sink (a lane's own fault
        // edge source is upstream of its cone, hence golden for that lane).
        for (lane, fault) in faults.iter().enumerate() {
            let lm = W::lane_mask(lane);
            let struck = topo.edge(fault.edge);
            let ei = fault.edge.index();
            match struck.consumer {
                // A delayed D pin samples the golden source waveform
                // `extra` later, for this lane only.
                Consumer::DffD(f) => {
                    let delay = timing.net_delay(struck.source).saturating_add(fault.extra);
                    let at = deadline.checked_sub(delay);
                    let src = struck.source.index();
                    let v = W::splat(value_at(&gold.tx[src], gold.base[src], at));
                    let fi = f.index();
                    let w = self.latch_word(fi);
                    *w = (*w & !lm) | (v & lm);
                    // Record the strike so a later divergence of the source
                    // net (for other lanes) never overwrites this lane's
                    // extra-shifted sample.
                    if self.strike_epoch[ei] == self.epoch {
                        self.strike_mask[ei] = self.strike_mask[ei] | lm;
                    } else {
                        self.strike_epoch[ei] = self.epoch;
                        self.strike_mask[ei] = lm;
                    }
                }
                // Primary outputs are not latched state; nothing diverges.
                Consumer::OutputBit { .. } => {}
                Consumer::GatePin { gate, .. } => {
                    if self.strike_epoch[ei] == self.epoch {
                        if self.strike_extra[ei] == fault.extra {
                            self.strike_mask[ei] = self.strike_mask[ei] | lm;
                        } else {
                            // A second distinct extra on the same pin would
                            // need a second special stream: retire the lane.
                            outcome.retired.push(lane);
                            continue;
                        }
                    } else {
                        self.strike_epoch[ei] = self.epoch;
                        self.strike_mask[ei] = lm;
                        self.strike_extra[ei] = fault.extra;
                    }
                    self.schedule(topo, gate);
                }
            }
        }

        // Levelized union-cone propagation, mirroring the scalar sweep.
        let plan = topo.plan();
        let mut level = 0;
        while level <= self.max_sched_level && level < self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                outcome.delta_events += self.eval_gate_wave(topo, timing, gold, g, deadline);
                let out = plan.op(plan.op_of_gate(g)).2 as usize;
                let div = self.wave_divergence(&gold.tx[out], gold.base[out]);
                if !div.any() {
                    outcome.reconverged += 1;
                    continue;
                }
                self.mark_diverged(topo, timing, gold, NetId::from_index(out), deadline);
            }
            level += 1;
        }
    }

    /// Computes the packed faulty output waveform of `g` into `self.wave`
    /// by sweeping the merged input streams in time order, evaluating every
    /// lane at each step. Returns the number of time-steps processed.
    fn eval_gate_wave(
        &mut self,
        topo: &Topology,
        timing: &TimingModel,
        gold: &GoldenWave<'_>,
        g: GateId,
        deadline: Picos,
    ) -> u64 {
        let plan = topo.plan();
        let (kind, ins, out) = plan.op(plan.op_of_gate(g));
        let mut pins = [W::ZERO; 3];
        // Up to two streams per pin: the common stream plus (for struck
        // pins) the extra-shifted golden special stream.
        let mut streams: [Option<Stream<'_, W>>; 6] = [None, None, None, None, None, None];
        let mut n = 0;
        for (slot, (eid, &src)) in topo
            .gate_in_edges(g)
            .zip(ins.iter().take(kind.arity()))
            .enumerate()
        {
            let si = src as usize;
            pins[slot] = W::splat(gold.base[si]);
            let ei = eid.index();
            let smask = if self.strike_epoch[ei] == self.epoch {
                self.strike_mask[ei]
            } else {
                W::ZERO
            };
            let delay = timing.net_delay(NetId::from_index(si));
            let common_tx = if self.fault_epoch[si] == self.epoch {
                Tx::Packed(&self.fault_tx[si][..])
            } else {
                Tx::Golden(&gold.tx[si][..])
            };
            streams[n] = Some(Stream {
                tx: common_tx,
                mask: !smask,
                shift: delay,
                cursor: 0,
                slot,
            });
            n += 1;
            if smask.any() {
                streams[n] = Some(Stream {
                    tx: Tx::Golden(&gold.tx[si][..]),
                    mask: smask,
                    shift: delay.saturating_add(self.strike_extra[ei]),
                    cursor: 0,
                    slot,
                });
                n += 1;
            }
        }
        let base_out = W::splat(gold.base[out as usize]);
        let mut out_val = base_out;
        self.wave.clear();
        let mut steps = 0u64;
        loop {
            // Earliest pending stream event, deadline-capped.
            let mut t_min: Option<Picos> = None;
            for s in streams[..n].iter().flatten() {
                if let Some(t) = s.peek_t() {
                    let at = t.saturating_add(s.shift);
                    if at <= deadline && t_min.is_none_or(|m| at < m) {
                        t_min = Some(at);
                    }
                }
            }
            let Some(t) = t_min else { break };
            for s in streams[..n].iter_mut().flatten() {
                while let Some(st) = s.peek_t() {
                    if st.saturating_add(s.shift) > t {
                        break;
                    }
                    let w = s.word();
                    pins[s.slot] = (pins[s.slot] & !s.mask) | (w & s.mask);
                    s.cursor += 1;
                }
            }
            steps += 1;
            let v = eval_lanes(kind, pins[0], pins[1], pins[2]);
            if v != out_val {
                out_val = v;
                push_tx_w(&mut self.wave, base_out, t, v);
            }
        }
        steps
    }

    /// The mask of lanes whose projection of `self.wave` differs — as a
    /// value-over-time function — from the scalar golden waveform.
    fn wave_divergence(&self, gold_tx: &[(Picos, bool)], base: bool) -> W {
        let wave = &self.wave;
        let b = W::splat(base);
        let mut div = W::ZERO;
        let (mut cw, mut cg) = (b, b);
        let (mut i, mut j) = (0usize, 0usize);
        while i < wave.len() || j < gold_tx.len() {
            match (wave.get(i), gold_tx.get(j)) {
                (Some(&(tw, vw)), Some(&(tg, vg))) => {
                    if tw <= tg {
                        cw = vw;
                        i += 1;
                    }
                    if tg <= tw {
                        cg = W::splat(vg);
                        j += 1;
                    }
                }
                (Some(&(_, vw)), None) => {
                    cw = vw;
                    i += 1;
                }
                (None, Some(&(_, vg))) => {
                    cg = W::splat(vg);
                    j += 1;
                }
                (None, None) => break,
            }
            div = div | (cw ^ cg);
        }
        div
    }

    /// Records `self.wave` as the packed faulty waveform of `net`,
    /// schedules its consumer gates and patches latched words of directly
    /// fed flip-flops (masked so lanes striking the D edge itself keep
    /// their extra-shifted seed).
    fn mark_diverged(
        &mut self,
        topo: &Topology,
        timing: &TimingModel,
        gold: &GoldenWave<'_>,
        net: NetId,
        deadline: Picos,
    ) {
        let i = net.index();
        self.fault_epoch[i] = self.epoch;
        std::mem::swap(&mut self.fault_tx[i], &mut self.wave);
        let at = deadline.checked_sub(timing.net_delay(net));
        for eid in topo.fanout_ids(net) {
            match topo.edge(eid).consumer {
                Consumer::GatePin { gate, .. } => self.schedule(topo, gate),
                Consumer::DffD(f) => {
                    let mut mask = W::ONES;
                    if self.strike_epoch[eid.index()] == self.epoch {
                        mask = mask & !self.strike_mask[eid.index()];
                    }
                    let v = value_at_w(&self.fault_tx[i], W::splat(gold.base[i]), at);
                    let fi = f.index();
                    let w = self.latch_word(fi);
                    *w = (*w & !mask) | (v & mask);
                }
                Consumer::OutputBit { .. } => {}
            }
        }
    }
}

/// Which carrier width the most recent batch ran on (selects the
/// lane-accessor source).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimingTier {
    /// `u64`: up to 64 lanes.
    Narrow,
    /// [`W256`]: 65..=256 lanes.
    Wide4,
    /// [`W512`]: 257..=[`MAX_TIMING_LANES`] lanes.
    Wide8,
}

/// Dispatches `$body` to the wave core selected by the current tier,
/// binding it mutably as `$core`.
macro_rules! with_wave {
    ($self:expr, $core:ident => $body:expr) => {
        match $self.tier {
            TimingTier::Narrow => {
                let $core = &mut $self.narrow;
                $body
            }
            TimingTier::Wide4 => {
                let $core = $self.wide4.as_mut().expect("wide4 core allocated").as_mut();
                $body
            }
            TimingTier::Wide8 => {
                let $core = $self.wide8.as_mut().expect("wide8 core allocated").as_mut();
                $body
            }
        }
    };
}

/// Shared-borrow counterpart of [`with_wave!`].
macro_rules! with_wave_ref {
    ($self:expr, $core:ident => $body:expr) => {
        match $self.tier {
            TimingTier::Narrow => {
                let $core = &$self.narrow;
                $body
            }
            TimingTier::Wide4 => {
                let $core = $self.wide4.as_ref().expect("wide4 core allocated").as_ref();
                $body
            }
            TimingTier::Wide8 => {
                let $core = $self.wide8.as_ref().expect("wide8 core allocated").as_ref();
                $body
            }
        }
    };
}

/// Lane-packed incremental timing-aware simulator: evaluates up to
/// [`MAX_TIMING_LANES`] `(edge, extra)` delay-fault scenarios at one trace
/// cycle simultaneously, as deltas against the caller's golden waveform
/// (see the module docs). One instance per worker thread, like
/// [`DeltaEventSim`](crate::DeltaEventSim).
#[derive(Clone, Debug)]
pub struct BatchDeltaSim<'a> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    narrow: WaveCore<u64>,
    /// The 256-lane wide-word core, allocated on the first batch wider
    /// than 64 lanes.
    wide4: Option<Box<WaveCore<W256>>>,
    /// The 512-lane wide-word core, allocated on the first batch wider
    /// than 256 lanes.
    wide8: Option<Box<WaveCore<W512>>>,
    /// The carrier width the most recent batch ran on.
    tier: TimingTier,
}

impl<'a> BatchDeltaSim<'a> {
    /// Creates a simulator bound to one circuit and timing model.
    pub fn new(circuit: &'a Circuit, topo: &'a Topology, timing: &'a TimingModel) -> Self {
        BatchDeltaSim {
            circuit,
            topo,
            timing,
            narrow: WaveCore::new(circuit, topo),
            wide4: None,
            wide8: None,
            tier: TimingTier::Narrow,
        }
    }

    /// Simulates one faulty cycle for every scenario in `faults`
    /// simultaneously against the golden waveform `gold`; lane `L`'s latched
    /// values are bit-identical to
    /// [`DeltaEventSim::latch_cycle`](crate::DeltaEventSim::latch_cycle)
    /// with `faults[L]` — except for lanes listed in
    /// [`BatchDeltaOutcome::retired`], which carry golden values and must
    /// be replayed on the scalar engine by the caller.
    ///
    /// Batches of at most 64 lanes run on `u64` words; wider batches switch
    /// to the 4×`u64` ([`W256`]) or 8×`u64` ([`W512`]) wide-word path,
    /// whichever is the narrowest fit.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_TIMING_LANES`] faults are given, or if
    /// `gold` holds no cycle or belongs to another circuit.
    pub fn latch_batch(
        &mut self,
        gold: &GoldenWave<'_>,
        faults: &[FaultSpec],
    ) -> BatchDeltaOutcome {
        assert!(
            faults.len() <= MAX_TIMING_LANES,
            "too many lanes in a timing batch"
        );
        gold.assert_built(self.circuit);
        let mut outcome = BatchDeltaOutcome::default();
        self.tier = if faults.len() <= <u64 as LaneWord>::LANES {
            TimingTier::Narrow
        } else if faults.len() <= W256::LANES {
            if self.wide4.is_none() {
                self.wide4 = Some(Box::new(WaveCore::new(self.circuit, self.topo)));
            }
            TimingTier::Wide4
        } else {
            if self.wide8.is_none() {
                self.wide8 = Some(Box::new(WaveCore::new(self.circuit, self.topo)));
            }
            TimingTier::Wide8
        };
        with_wave!(self, core => core.latch_batch(
            self.topo,
            self.timing,
            gold,
            faults,
            &mut outcome,
        ));
        outcome
    }

    /// The latched value of flip-flop `dff` on `lane` after the most recent
    /// batch.
    #[inline]
    fn latched_bit(&self, dff: usize, lane: usize) -> bool {
        with_wave_ref!(self, core => if core.latch_epoch[dff] == core.epoch {
            core.latch_out[dff].get(lane)
        } else {
            core.latch_base[dff]
        })
    }

    /// The flip-flops whose latched value on `lane` differs from `expect`
    /// (for the injector: `expect` = the fault-free next state, making this
    /// the lane's dynamically reachable set), sorted by id.
    pub fn lane_mismatches(&self, lane: usize, expect: &[bool]) -> Vec<DffId> {
        assert_eq!(expect.len(), self.circuit.num_dffs());
        (0..expect.len())
            .filter(|&i| self.latched_bit(i, lane) != expect[i])
            .map(DffId::from_index)
            .collect()
    }

    /// Every lane's mismatch set against `expect` in one pass over the
    /// flip-flops: entry `L` equals
    /// [`lane_mismatches`](BatchDeltaSim::lane_mismatches)`(L, expect)` for
    /// `L < lanes`. One word-wide XOR per flip-flop replaces a per-lane
    /// scan, so the cost is O(num_dffs + total mismatches) instead of
    /// O(lanes × num_dffs) — the difference dominates exactly when faults
    /// are mostly masked and mismatch sets are small.
    pub fn mismatch_sets(&self, lanes: usize, expect: &[bool]) -> Vec<Vec<DffId>> {
        assert_eq!(expect.len(), self.circuit.num_dffs());
        fn extract<W: LaneWord>(
            core: &WaveCore<W>,
            lanes: usize,
            expect: &[bool],
        ) -> Vec<Vec<DffId>> {
            let mut out = vec![Vec::new(); lanes];
            for (i, &e) in expect.iter().enumerate() {
                if core.latch_epoch[i] == core.epoch {
                    let diff = core.latch_out[i] ^ W::splat(e);
                    if diff.any() {
                        diff.for_each_set(lanes, |lane| out[lane].push(DffId::from_index(i)));
                    }
                } else if core.latch_base[i] != e {
                    // Untouched by the union cone: every lane latched the
                    // golden base, so either no lane mismatches or all do.
                    for set in &mut out {
                        set.push(DffId::from_index(i));
                    }
                }
            }
            out
        }
        with_wave_ref!(self, core => extract(core, lanes, expect))
    }

    /// The full latched flip-flop vector of `lane` after the most recent
    /// batch.
    pub fn lane_latched(&self, lane: usize) -> Vec<bool> {
        (0..self.circuit.num_dffs())
            .map(|i| self.latched_bit(i, lane))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::settle;
    use crate::delta::DeltaEventSim;
    use crate::event::EventSim;
    use delayavf_netlist::{CircuitBuilder, EdgeId};
    use delayavf_timing::TechLibrary;

    /// Figure-2-style circuit (same as the `DeltaEventSim` tests).
    fn figure2() -> (Circuit, Topology, TimingModel) {
        let mut b = CircuitBuilder::new();
        let x = b.input("x");
        let y = b.input("y");
        let z = b.and(x, y);
        let ra = b.reg("A", false);
        b.drive(ra, z);
        let rb = b.reg("B", false);
        b.drive(rb, x);
        b.output("a", ra.q());
        b.output("b", rb.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
        (c, topo, timing)
    }

    /// The golden waveform of one figure-2 cycle.
    fn golden<'a>(
        c: &'a Circuit,
        topo: &'a Topology,
        timing: &'a TimingModel,
        prev_values: &[bool],
        state: &[bool],
        inputs: &[u64],
    ) -> GoldenWave<'a> {
        let mut gold = GoldenWave::new(c, topo, timing);
        gold.ensure(0, prev_values, state, inputs);
        gold
    }

    #[test]
    fn every_lane_matches_the_full_event_sim() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let mut full = EventSim::new(&c, &topo, &timing);
        let gold = golden(&c, &topo, &timing, &prev_values, &state, &inputs);
        let mut batch = BatchDeltaSim::new(&c, &topo, &timing);
        let clock = timing.clock_period();
        // One batch per extra: distinct edges batch without retirement.
        for extra in [0, 1, clock / 2, clock, 2 * clock] {
            let faults: Vec<FaultSpec> = (0..topo.edges().len())
                .map(|i| FaultSpec {
                    edge: EdgeId::from_index(i),
                    extra,
                })
                .collect();
            let outcome = batch.latch_batch(&gold, &faults);
            assert!(outcome.retired.is_empty(), "distinct edges never retire");
            for (lane, &fault) in faults.iter().enumerate() {
                let want = full.latch_cycle(&prev_values, &state, &inputs, Some(fault));
                assert_eq!(batch.lane_latched(lane), want, "lane {lane} extra {extra}");
            }
        }
    }

    #[test]
    fn conflicting_extras_on_one_pin_retire_the_later_lane() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let clock = timing.clock_period();
        // A gate-pin edge: x into the AND.
        let e = (0..topo.edges().len())
            .map(EdgeId::from_index)
            .find(|&e| matches!(topo.edge(e).consumer, Consumer::GatePin { .. }))
            .unwrap();
        let faults = [
            FaultSpec {
                edge: e,
                extra: clock,
            },
            FaultSpec {
                edge: e,
                extra: clock / 2,
            },
            FaultSpec {
                edge: e,
                extra: clock,
            },
        ];
        let gold = golden(&c, &topo, &timing, &prev_values, &state, &inputs);
        let mut batch = BatchDeltaSim::new(&c, &topo, &timing);
        let outcome = batch.latch_batch(&gold, &faults);
        assert_eq!(outcome.retired, vec![1], "the conflicting extra retires");
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        for lane in [0usize, 2] {
            let (want, _) = delta.latch_cycle(&gold, faults[lane]);
            assert_eq!(batch.lane_latched(lane), want, "surviving lane {lane}");
        }
    }

    #[test]
    fn wide_batches_run_the_256_lane_path() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let clock = timing.clock_period();
        let n_edges = topo.edges().len();
        // > 64 lanes by cycling the edge set at one extra (same-extra
        // repeats share the special stream, no retirement).
        let faults: Vec<FaultSpec> = (0..100)
            .map(|i| FaultSpec {
                edge: EdgeId::from_index(i % n_edges),
                extra: clock,
            })
            .collect();
        let gold = golden(&c, &topo, &timing, &prev_values, &state, &inputs);
        let mut batch = BatchDeltaSim::new(&c, &topo, &timing);
        let outcome = batch.latch_batch(&gold, &faults);
        assert!(outcome.retired.is_empty());
        assert_eq!(
            batch.tier,
            TimingTier::Wide4,
            "a 100-lane batch takes the 256-lane path"
        );
        let mut full = EventSim::new(&c, &topo, &timing);
        for (lane, &fault) in faults.iter().enumerate() {
            let want = full.latch_cycle(&prev_values, &state, &inputs, Some(fault));
            assert_eq!(batch.lane_latched(lane), want, "wide lane {lane}");
        }
    }

    #[test]
    fn widest_batches_run_the_512_lane_path() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let clock = timing.clock_period();
        let n_edges = topo.edges().len();
        let faults: Vec<FaultSpec> = (0..300)
            .map(|i| FaultSpec {
                edge: EdgeId::from_index(i % n_edges),
                extra: clock,
            })
            .collect();
        let gold = golden(&c, &topo, &timing, &prev_values, &state, &inputs);
        let mut batch = BatchDeltaSim::new(&c, &topo, &timing);
        let outcome = batch.latch_batch(&gold, &faults);
        assert!(outcome.retired.is_empty());
        assert_eq!(
            batch.tier,
            TimingTier::Wide8,
            "a 300-lane batch takes the 512-lane path"
        );
        assert!(batch.wide4.is_none(), "the 256-lane core stays unallocated");
        let mut full = EventSim::new(&c, &topo, &timing);
        for (lane, &fault) in faults.iter().enumerate() {
            let want = full.latch_cycle(&prev_values, &state, &inputs, Some(fault));
            assert_eq!(batch.lane_latched(lane), want, "widest lane {lane}");
        }
    }
}
