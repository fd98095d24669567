//! Incremental timing-aware simulation: a shared golden-waveform cache plus
//! fault-cone delta event propagation.
//!
//! The full [`EventSim`](crate::EventSim) re-simulates the entire circuit's
//! timed waveform for every injection, although all ~hundreds of edges
//! injected at the same trace cycle share an identical fault-free waveform
//! and a small delay fault can only perturb signals inside the struck edge's
//! fanout cone. [`DeltaEventSim`] exploits both:
//!
//! 1. **Golden waveform.** The fault-free timed waveform of a trace cycle
//!    is built once, level by level over the evaluation plan: each gate's
//!    output is computed from its pins' shifted source waveforms by the
//!    same gate-wave merge the delta step below uses. It is stored in a
//!    [`GoldenWave`] as canonical per-net transition lists — strictly
//!    increasing times with alternating values, i.e. exactly the
//!    value-over-time step function of each net — plus the fault-free
//!    latched flip-flop values. The caller owns the [`GoldenWave`] and
//!    passes it to every injection at that cycle, so the lane-packed
//!    [`BatchDeltaSim`](crate::BatchDeltaSim) reads the very same build.
//! 2. **Delta simulation.** A faulty injection is evaluated as a difference
//!    against the cached waveform, seeded at the struck edge's sink: the
//!    struck gate's faulty output waveform is computed from its input pin
//!    streams (golden source transitions shifted by edge delay, plus the
//!    fault's `extra` on the struck edge), and divergence propagates in
//!    [`Topology::gate_level`] order. A gate whose faulty output waveform
//!    reconverges to the cached golden waveform is pruned; the run ends as
//!    soon as the delta frontier empties, and flip-flops outside the
//!    divergence cone latch their cached golden values for free.
//!
//! Transport delays are pure shifts, so each pin's waveform is its source
//! net's waveform delayed by the edge delay, and every net's final waveform
//! is a deterministic function of the input/state waveforms — independent of
//! the event interleaving the full simulator happens to use. Both the
//! levelized golden build and the delta are therefore **bit-identical** to
//! the heap-driven [`EventSim::latch_cycle`](crate::EventSim::latch_cycle)
//! with the same fault (pinned by `crates/sim/tests/prop_delta_sim.rs` and
//! `crates/sim/tests/prop_golden_wave.rs`); only the work performed
//! changes. The one glitch rule is that of the event loop: every
//! transition at one instant is applied before the gate is evaluated, so a
//! same-instant glitch cancels ([`push_tx`] keeps lists canonical).
//!
//! [`Topology::gate_level`]: delayavf_netlist::Topology::gate_level

use delayavf_netlist::{Circuit, Consumer, GateId, GateKind, NetId, Topology};
use delayavf_timing::{Picos, TimingModel};

use crate::event::FaultSpec;

/// Work accounting for one [`DeltaEventSim::latch_cycle`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Merged waveform time-steps processed while evaluating delta-cone
    /// gates (the delta analogue of full event-simulation work).
    pub delta_events: u64,
    /// Gates whose faulty output waveform reconverged with the cached
    /// golden waveform and were pruned from the frontier (every remaining
    /// divergence settled before reaching them).
    pub reconverged: u64,
}

/// A transition list: `(time, value)` with strictly increasing times and
/// alternating values — the canonical encoding of a net's value over the
/// cycle, starting from its settled previous-cycle value.
pub(crate) type Wave = Vec<(Picos, bool)>;

/// Appends a transition, keeping the list canonical: a same-time push
/// overwrites (zero-width glitches collapse), and a push restoring the
/// current value is dropped.
#[inline]
pub(crate) fn push_tx(tx: &mut Wave, base: bool, t: Picos, v: bool) {
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

/// The value of a canonical transition list at time `at` (`None` = before
/// the cycle starts, i.e. the base value).
#[inline]
pub(crate) fn value_at(tx: &[(Picos, bool)], base: bool, at: Option<Picos>) -> bool {
    let Some(at) = at else { return base };
    let idx = tx.partition_point(|&(t, _)| t <= at);
    if idx == 0 {
        base
    } else {
        tx[idx - 1].1
    }
}

/// One gate input pin as a time-ordered stream: its source net's canonical
/// transition list and settled base value, read `shift` later (the edge
/// delay, plus a fault's extra delay on a struck edge).
#[derive(Clone, Copy, Debug)]
struct PinStream<'w> {
    tx: &'w [(Picos, bool)],
    base: bool,
    shift: Picos,
}

impl PinStream<'_> {
    /// A pin that never changes (the filler of unused pin slots).
    const QUIET: PinStream<'static> = PinStream {
        tx: &[],
        base: false,
        shift: 0,
    };
}

/// Computes a gate's output waveform into `out` from its input pin streams
/// (one per pin, in pin order): the pins' shifted transitions are merged in
/// time order, every transition at one instant is applied, and the gate is
/// evaluated once per instant, up to and including `deadline` — exactly as
/// the event loop applies pin events before the latch. Returns the number
/// of merged instants evaluated.
fn gate_wave(
    kind: GateKind,
    pins: &[PinStream<'_>],
    base_out: bool,
    deadline: Picos,
    out: &mut Wave,
) -> u64 {
    let mut ins = [false; 3];
    let mut cursor = [0usize; 3];
    for (slot, p) in ins.iter_mut().zip(pins) {
        *slot = p.base;
    }
    let mut out_val = base_out;
    out.clear();
    let mut steps = 0u64;
    loop {
        // Earliest pending pin transition, deadline-capped.
        let mut t_min: Option<Picos> = None;
        for (p, &c) in pins.iter().zip(&cursor) {
            if let Some(&(t, _)) = p.tx.get(c) {
                let at = t.saturating_add(p.shift);
                if at <= deadline && t_min.is_none_or(|m| at < m) {
                    t_min = Some(at);
                }
            }
        }
        let Some(t) = t_min else { break };
        for ((p, c), slot) in pins.iter().zip(&mut cursor).zip(&mut ins) {
            while let Some(&(st, v)) = p.tx.get(*c) {
                if st.saturating_add(p.shift) > t {
                    break;
                }
                *slot = v;
                *c += 1;
            }
        }
        steps += 1;
        let v = kind.eval3(ins[0], ins[1], ins[2]);
        if v != out_val {
            out_val = v;
            push_tx(out, base_out, t, v);
        }
    }
    steps
}

/// The fault-free timed waveform of one trace cycle: canonical per-net
/// transition lists, the settled base values they start from, and the
/// fault-free latched flip-flop values.
///
/// Both delta engines read it: [`DeltaEventSim`] and
/// [`BatchDeltaSim`](crate::BatchDeltaSim) evaluate faulty injections as
/// deltas against exactly this waveform. It is built level by level over
/// the evaluation plan with the gate-wave merge the delta step uses, and
/// equals what the heap-driven
/// [`EventSim::latch_cycle`](crate::EventSim::latch_cycle) computes with no
/// fault. The owner builds it once per trace cycle with
/// [`GoldenWave::ensure`] and hands it to every injection at that cycle.
#[derive(Clone, Debug)]
pub struct GoldenWave<'a> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    /// Trace cycle the waveform currently holds.
    cached_cycle: Option<u64>,
    /// Settled net values at the clock edge (the waveform base values).
    pub(crate) base: Vec<bool>,
    /// Canonical per-net golden transition lists for the cached cycle.
    pub(crate) tx: Vec<Wave>,
    /// Fault-free latched value per flip-flop for the cached cycle.
    pub(crate) latch: Vec<bool>,
}

impl<'a> GoldenWave<'a> {
    /// Creates an empty waveform cache bound to one circuit and timing
    /// model.
    pub fn new(circuit: &'a Circuit, topo: &'a Topology, timing: &'a TimingModel) -> Self {
        GoldenWave {
            circuit,
            topo,
            timing,
            cached_cycle: None,
            base: vec![false; circuit.num_nets()],
            tx: vec![Vec::new(); circuit.num_nets()],
            latch: vec![false; circuit.num_dffs()],
        }
    }

    /// Ensures the cache holds `cycle`, rebuilding if it holds a different
    /// trace cycle (or none). Returns true on a rebuild. Consecutive calls
    /// with the same cycle number must pass the same `prev_values` /
    /// `new_state` / `new_inputs`: the settled net values of the previous
    /// cycle, this cycle's flip-flop values and its input port words, as
    /// for [`EventSim::latch_cycle`](crate::EventSim::latch_cycle).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the circuit.
    pub fn ensure(
        &mut self,
        cycle: u64,
        prev_values: &[bool],
        new_state: &[bool],
        new_inputs: &[u64],
    ) -> bool {
        if self.holds(cycle) {
            return false;
        }
        assert_eq!(prev_values.len(), self.circuit.num_nets());
        assert_eq!(new_state.len(), self.circuit.num_dffs());
        self.build(prev_values, new_state, new_inputs);
        self.cached_cycle = Some(cycle);
        true
    }

    /// Whether the cache holds `cycle`'s waveform.
    pub fn holds(&self, cycle: u64) -> bool {
        self.cached_cycle == Some(cycle)
    }

    /// Forgets the held waveform, so the next [`GoldenWave::ensure`]
    /// rebuilds whatever cycle it asks for.
    pub fn forget(&mut self) {
        self.cached_cycle = None;
    }

    /// The canonical transition list of `net`: `(time, value)` pairs with
    /// strictly increasing times and alternating values, starting from the
    /// net's settled previous-cycle value. Same-instant glitches cancel, so
    /// an empty list means the net's value never changes during the cycle
    /// and a delay fault on any of its fanout edges is vacuous.
    pub fn transitions(&self, net: NetId) -> &[(Picos, bool)] {
        &self.tx[net.index()]
    }

    /// The fault-free latched value of every flip-flop (indexed by raw
    /// `DffId`).
    pub fn latched(&self) -> &[bool] {
        &self.latch
    }

    /// Panics unless a cycle has been built: the delta engines read the
    /// waveform and have nothing to diff against before that.
    pub(crate) fn assert_built(&self, circuit: &Circuit) {
        assert!(self.cached_cycle.is_some(), "golden waveform not built");
        assert_eq!(
            self.tx.len(),
            circuit.num_nets(),
            "waveform of another circuit"
        );
    }

    /// Builds the fault-free timed waveform of one cycle level by level:
    /// flip-flop Q nets and inputs that change do so at t = 0, each plan op's
    /// output is the [`gate_wave`] of its pins' source waveforms shifted by
    /// the edge delays, and each flip-flop latches its D source's value one
    /// edge delay before the deadline.
    fn build(&mut self, prev_values: &[bool], new_state: &[bool], new_inputs: &[u64]) {
        let (circuit, topo, timing) = (self.circuit, self.topo, self.timing);
        let plan = topo.plan();
        let deadline = timing.clock_period().saturating_sub(timing.setup());
        for tx in &mut self.tx {
            tx.clear();
        }
        self.base.copy_from_slice(prev_values);

        // t = 0: the clock edge updates flip-flop outputs and the
        // environment presents new inputs.
        for (&q, &v) in plan.dff_q().iter().zip(new_state) {
            let q = q as usize;
            push_tx(&mut self.tx[q], prev_values[q], 0, v);
        }
        for (port, &word) in circuit.input_ports().iter().zip(new_inputs) {
            for (bit, &net) in port.nets().iter().enumerate() {
                let n = net.index();
                push_tx(&mut self.tx[n], prev_values[n], 0, (word >> bit) & 1 == 1);
            }
        }

        // Plan order evaluates every gate after all of its sources.
        for op in 0..plan.len() {
            let (kind, ins, out) = plan.op(op as u32);
            let out = out as usize;
            let mut wave = std::mem::take(&mut self.tx[out]);
            let mut pins = [PinStream::QUIET; 3];
            for (pin, &src) in pins.iter_mut().zip(&ins[..kind.arity()]) {
                let src = src as usize;
                *pin = PinStream {
                    tx: &self.tx[src],
                    base: prev_values[src],
                    shift: timing.net_delay(NetId::from_index(src)),
                };
            }
            gate_wave(
                kind,
                &pins[..kind.arity()],
                prev_values[out],
                deadline,
                &mut wave,
            );
            self.tx[out] = wave;
        }

        for (latch, &d) in self.latch.iter_mut().zip(plan.dff_d()) {
            let d = d as usize;
            let at = deadline.checked_sub(timing.net_delay(NetId::from_index(d)));
            *latch = value_at(&self.tx[d], self.base[d], at);
        }
    }
}

/// Reusable incremental timing-aware single-cycle simulator (see the module
/// docs). One instance per worker thread, like [`EventSim`](crate::EventSim).
#[derive(Clone, Debug)]
pub struct DeltaEventSim<'a> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    timing: &'a TimingModel,
    // Epoch-stamped delta scratch (O(1) reset per injection).
    fault_tx: Vec<Wave>,
    fault_epoch: Vec<u64>,
    sched_epoch: Vec<u64>,
    epoch: u64,
    /// Delta-frontier worklist, bucketed by combinational level.
    buckets: Vec<Vec<GateId>>,
    max_sched_level: usize,
    /// Scratch for the gate output waveform under evaluation.
    wave: Wave,
    /// Latched values returned by the last call (golden patched with the
    /// divergence cone's flip-flops).
    latch_out: Vec<bool>,
}

impl<'a> DeltaEventSim<'a> {
    /// Creates a simulator bound to one circuit and timing model.
    pub fn new(circuit: &'a Circuit, topo: &'a Topology, timing: &'a TimingModel) -> Self {
        DeltaEventSim {
            circuit,
            topo,
            timing,
            fault_tx: vec![Vec::new(); circuit.num_nets()],
            fault_epoch: vec![0; circuit.num_nets()],
            sched_epoch: vec![0; circuit.num_gates()],
            epoch: 0,
            buckets: vec![Vec::new(); topo.num_levels()],
            max_sched_level: 0,
            wave: Vec::new(),
            latch_out: vec![false; circuit.num_dffs()],
        }
    }

    /// Simulates one faulty cycle as a delta against the cycle's golden
    /// waveform `gold`, returning the latched flip-flop values (identical to
    /// [`EventSim::latch_cycle`](crate::EventSim::latch_cycle) with
    /// `Some(fault)` on the inputs `gold` was built from) and the work
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics if `gold` holds no cycle or belongs to another circuit.
    pub fn latch_cycle(
        &mut self,
        gold: &GoldenWave<'_>,
        fault: FaultSpec,
    ) -> (&[bool], DeltaOutcome) {
        gold.assert_built(self.circuit);
        let mut outcome = DeltaOutcome::default();
        let deadline = self
            .timing
            .clock_period()
            .saturating_sub(self.timing.setup());

        self.latch_out.copy_from_slice(&gold.latch);
        self.epoch += 1;
        self.max_sched_level = self.buckets.len();

        // Seed the delta at the struck edge's sink. The source net's
        // waveform is golden by construction (the fault sits on the edge,
        // and a single combinational cycle has no feedback).
        let struck = self.topo.edge(fault.edge);
        match struck.consumer {
            // A delayed D pin samples the source waveform `extra` later.
            Consumer::DffD(f) => {
                let delay = self
                    .timing
                    .net_delay(struck.source)
                    .saturating_add(fault.extra);
                let at = deadline.checked_sub(delay);
                let src = struck.source.index();
                self.latch_out[f.index()] = value_at(&gold.tx[src], gold.base[src], at);
            }
            // Primary outputs are not latched state; nothing can diverge.
            Consumer::OutputBit { .. } => {}
            Consumer::GatePin { gate, .. } => {
                self.schedule(gate);
                self.sweep(gold, fault, deadline, &mut outcome);
            }
        }
        (&self.latch_out, outcome)
    }

    /// Latched values of the most recent [`DeltaEventSim::latch_cycle`].
    #[inline]
    pub fn latched(&self) -> &[bool] {
        &self.latch_out
    }

    /// Schedules `gate` onto the delta frontier once per injection.
    #[inline]
    fn schedule(&mut self, gate: GateId) {
        if self.sched_epoch[gate.index()] != self.epoch {
            self.sched_epoch[gate.index()] = self.epoch;
            let level = self.topo.gate_level(gate) as usize;
            if self.max_sched_level == self.buckets.len() {
                self.max_sched_level = level;
            } else {
                self.max_sched_level = self.max_sched_level.max(level);
            }
            self.buckets[level].push(gate);
        }
    }

    /// Levelized delta propagation: each frontier gate's faulty output
    /// waveform is computed from its input pin streams, compared against the
    /// cached golden waveform (reconverged ⇒ pruned), and diverging outputs
    /// extend the frontier / patch latched flip-flops.
    fn sweep(
        &mut self,
        gold: &GoldenWave<'_>,
        fault: FaultSpec,
        deadline: Picos,
        outcome: &mut DeltaOutcome,
    ) {
        let mut level = 0;
        while level <= self.max_sched_level && level < self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                outcome.delta_events += self.eval_gate_wave(gold, g, fault, deadline);
                let out = self.circuit.gate(g).output();
                if self.wave == gold.tx[out.index()] {
                    outcome.reconverged += 1;
                    continue;
                }
                self.mark_diverged(gold, out, deadline);
            }
            level += 1;
        }
    }

    /// Computes the faulty output waveform of `g` into `self.wave` with
    /// [`gate_wave`]. Returns the number of time-steps processed.
    ///
    /// Each input pin stream is its source net's waveform (faulty if the
    /// source diverged, cached golden otherwise) shifted by the edge delay —
    /// plus the fault's `extra` on the struck edge.
    fn eval_gate_wave(
        &mut self,
        gold: &GoldenWave<'_>,
        g: GateId,
        fault: FaultSpec,
        deadline: Picos,
    ) -> u64 {
        let gate = self.circuit.gate(g);
        let mut pins = [PinStream::QUIET; 3];
        for (pin, (eid, &src)) in pins
            .iter_mut()
            .zip(self.topo.gate_in_edges(g).zip(gate.inputs()))
        {
            let extra = if eid == fault.edge { fault.extra } else { 0 };
            let i = src.index();
            *pin = PinStream {
                tx: if self.fault_epoch[i] == self.epoch {
                    &self.fault_tx[i]
                } else {
                    &gold.tx[i]
                },
                base: gold.base[i],
                shift: self.timing.net_delay(src).saturating_add(extra),
            };
        }
        let arity = gate.kind().arity();
        gate_wave(
            gate.kind(),
            &pins[..arity],
            gold.base[gate.output().index()],
            deadline,
            &mut self.wave,
        )
    }

    /// Records `self.wave` as the faulty waveform of `net`, schedules its
    /// consumer gates and patches latched values of directly fed flip-flops.
    fn mark_diverged(&mut self, gold: &GoldenWave<'_>, net: NetId, deadline: Picos) {
        let i = net.index();
        self.fault_epoch[i] = self.epoch;
        std::mem::swap(&mut self.fault_tx[i], &mut self.wave);
        let delay = self.timing.net_delay(net);
        let at = deadline.checked_sub(delay);
        for e in self.topo.fanouts(net) {
            match e.consumer {
                Consumer::GatePin { gate, .. } => self.schedule(gate),
                Consumer::DffD(f) => {
                    self.latch_out[f.index()] = value_at(&self.fault_tx[i], gold.base[i], at);
                }
                Consumer::OutputBit { .. } => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::settle;
    use crate::event::EventSim;
    use delayavf_netlist::{CircuitBuilder, EdgeId};
    use delayavf_timing::TechLibrary;

    /// Figure-2-style circuit (same as the `EventSim` tests): x and y feed
    /// an AND into register A; x also lands directly in register B.
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

    #[test]
    fn delta_matches_full_event_sim_on_every_edge_and_delay() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let mut full = EventSim::new(&c, &topo, &timing);
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(3, &prev_values, &state, &inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let clock = timing.clock_period();
        for e in (0..topo.edges().len()).map(EdgeId::from_index) {
            for extra in [0, 1, clock / 2, clock, 2 * clock] {
                let fault = FaultSpec { edge: e, extra };
                let want = full.latch_cycle(&prev_values, &state, &inputs, Some(fault));
                let (got, _) = delta.latch_cycle(&gold, fault);
                assert_eq!(got, want, "edge {e:?} extra {extra}");
            }
        }
    }

    #[test]
    fn golden_wave_is_built_once_per_cycle() {
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 1]);
        let inputs = [1u64, 1];
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        assert!(
            gold.ensure(7, &prev_values, &state, &inputs),
            "first use builds"
        );
        assert!(
            !gold.ensure(7, &prev_values, &state, &inputs),
            "same cycle reuses the waveform"
        );
        assert!(
            gold.ensure(8, &prev_values, &state, &inputs),
            "a new cycle rebuilds"
        );
        let mut full = EventSim::new(&c, &topo, &timing);
        let want = full.latch_cycle(&prev_values, &state, &inputs, None);
        assert_eq!(
            gold.latched(),
            want,
            "fault-free latch matches the event sim"
        );
        for net in (0..c.num_nets()).map(NetId::from_index) {
            if full.changed_nets()[net.index()] {
                continue;
            }
            assert!(
                gold.transitions(net).is_empty(),
                "a net the event sim never changed has no transitions"
            );
        }
    }

    #[test]
    #[should_panic(expected = "golden waveform not built")]
    fn injecting_before_any_build_panics() {
        let (c, topo, timing) = figure2();
        let gold = GoldenWave::new(&c, &topo, &timing);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let fault = FaultSpec {
            edge: EdgeId::from_index(0),
            extra: 0,
        };
        let _ = delta.latch_cycle(&gold, fault);
    }

    #[test]
    fn masked_fault_reconverges_and_prunes() {
        // Figure 2c: y = 0 masks the delayed x at the AND, so the struck
        // gate's output waveform equals golden and the frontier is pruned
        // immediately.
        let (c, topo, timing) = figure2();
        let state = c.initial_state();
        let prev_values = settle(&c, &topo, &state, &[0, 0]);
        let inputs = [1u64, 0];
        let e = (0..topo.edges().len())
            .map(EdgeId::from_index)
            .find(|&e| {
                let edge = topo.edge(e);
                edge.source == c.input_nets()[0]
                    && matches!(edge.consumer, Consumer::GatePin { .. })
            })
            .unwrap();
        let mut gold = GoldenWave::new(&c, &topo, &timing);
        gold.ensure(0, &prev_values, &state, &inputs);
        let mut delta = DeltaEventSim::new(&c, &topo, &timing);
        let fault = FaultSpec {
            edge: e,
            extra: timing.clock_period(),
        };
        let (latched, outcome) = delta.latch_cycle(&gold, fault);
        assert_eq!(latched, &[false, true][..]);
        assert_eq!(outcome.reconverged, 1, "the masked AND gate is pruned");
    }
}
