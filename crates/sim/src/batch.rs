//! Wide-lane bit-parallel replay (parallel-pattern single-fault
//! propagation).
//!
//! A GroupACE / sAVF campaign replays thousands of near-identical fault
//! scenarios through the same netlist against the same [`GoldenTrace`].
//! [`BatchSim`] packs up to [`MAX_LANES`] such scenarios into the bit lanes
//! of lane-carrier words — one word per net, one bit per lane — and
//! evaluates the whole batch with bitwise ops over the 9-kind cell set.
//! The carrier is chosen per batch from the scenario count: `u64` up to 64
//! lanes, [`crate::W256`] up to 256, [`crate::W512`] up to 512, all running
//! the same generic engine, so small batches never pay for unused width.
//! [`BatchSim::narrow`] repacks the surviving lanes onto a narrower carrier
//! once they fit one, so a long-lived lane stops paying for the width its
//! finished neighbours needed.
//!
//! Each cycle is executed by one of two exact, interchangeable paths:
//!
//! * **dense** — a straight-line sweep of the [`EvalPlan`]'s packed
//!   opcode/operand arrays, evaluating every gate (branch-light,
//!   allocation-free, no per-gate struct loads); and
//! * **sparse** — concurrent fault simulation on lane words: net words are
//!   carried as lane-diffs against the trace's shared golden settle
//!   ([`GoldenTrace::golden_block`]), and a levelized worklist re-evaluates
//!   only gates reached by dirty nets.
//!
//! The path is chosen per cycle from the size of the diverged seed
//! (flip-flops plus deviating input bits) times the gates the batch's
//! sparse steps have visited per seed net so far: when the predicted cone
//! visits cost less than one sweep of the whole netlist (the common case
//! for persistent single-bit state corruptions) the sparse path costs the
//! union of the lanes' divergence cones instead. Wide-fanout structures
//! switch to the dense sweep at fewer seeds than narrow-cone ones.
//!
//! **Environments.** The [`crate::Environment`] contract is deterministic
//! given the outputs it observes, so while a lane's output ports match the
//! golden words its environment behaves exactly like the recorded run: by
//! default every lane receives the *recorded* golden input words.
//! [`BatchSim::step`] returns the mask of lanes whose output words diverged
//! this cycle. From the next cycle on such a lane's environment may leave
//! the recorded trajectory, so the caller steps a private environment for
//! it and hands its input words to [`BatchSim::set_lane_inputs`] before
//! every step; the lane keeps sharing each pass over the netlist.
//!
//! **Past the trace.** From `trace.num_cycles()` on there is no golden
//! baseline. The batch then steps densely from each lane's materialized
//! state, every lane's inputs come from [`BatchSim::set_lane_inputs`]
//! (all-zero otherwise), and lanes carry absolute values instead of diffs.
//!
//! Divergence against the golden run is detected with word-wide XOR against
//! the packed per-cycle state of the trace, giving each lane an independent
//! convergence early-exit via [`BatchSim::divergence_mask`]. All masks
//! cross the public API as [`LaneMask`] (512 bits) regardless of the
//! carrier running the batch.
//!
//! [`EvalPlan`]: delayavf_netlist::EvalPlan

use delayavf_netlist::{Circuit, Consumer, DffId, EvalPlan, GateId, NetId, Topology};

use crate::pack::{eval_lanes, packed_bit, LaneWord, W256, W512};
use crate::trace::GoldenTrace;

/// Maximum number of scenarios in one [`BatchSim`] batch (the lane count
/// of the widest carrier, [`crate::W512`]).
pub const MAX_LANES: usize = 512;

/// The lane mask type crossing the [`BatchSim`] public API: one bit per
/// possible lane, independent of the carrier width running the batch
/// (narrower carriers report their lanes in the low bits).
pub type LaneMask = W512;

/// Dense gate-words one sparse gate visit costs. The worklist's scheduling
/// and scattered reads make a visit several straight-line gate-words. Timed
/// per step on the 64-lane carrier over the perfbench replay workloads
/// (`savf_stateful`, `alu_sweep`, `alu_sweep_adaptive`, seed 7, 2-vCPU
/// host), sparse steps with 20 or more seed nets cost 33–45 ns per visited
/// gate and [`EvalPlan::settle`]'s dense steps 2.6–3.0 ns per gate, a
/// ratio of 12–17. The constant stays at 8: a different one picks other
/// paths and so moves the `gates_evaluated` counter.
const SPARSE_VISIT_COST: u64 = 8;

/// The visits-per-seed estimate a batch starts from, as pseudo-counts
/// `(visits, seeds)`: two visits per seed net, so that at
/// [`SPARSE_VISIT_COST`] a fresh batch takes the sparse path for at most
/// one seed per 16 gates until its own sparse steps say otherwise.
const PRIOR_VISITS_PER_SEED: (u64, u64) = (2, 1);

/// One primary-port bit: the net carrying it and its position in the port
/// word.
#[derive(Clone, Copy, Debug)]
struct PortBit {
    net: u32,
    port: u16,
    bit: u16,
}

/// Widens a carrier-width mask into the public [`LaneMask`]. Costs one
/// iteration per set lane.
fn widen<W: LaneWord>(w: W) -> LaneMask {
    let mut m = LaneMask::ZERO;
    w.for_each_set(W::LANES, |l| m = m | LaneMask::lane_mask(l));
    m
}

/// Narrows a [`LaneMask`] to a carrier word (lanes past the carrier are
/// dropped). Costs one iteration per set lane.
fn narrow_mask<W: LaneWord>(m: LaneMask) -> W {
    let mut w = W::ZERO;
    m.for_each_set(W::LANES, |l| w = w | W::lane_mask(l));
    w
}

/// The packed state lanes are diffed against at the start of `cycle`: the
/// golden state up to and including the trace's final boundary, none (all
/// zero, so lanes hold absolute values) past it.
fn state_ref(trace: &GoldenTrace, cycle: u64) -> Option<&[u64]> {
    (cycle <= trace.num_cycles()).then(|| trace.state_at(cycle))
}

/// Bit `i` of an optional packed reference (absent = zero).
fn ref_bit(words: Option<&[u64]>, i: usize) -> bool {
    words.is_some_and(|w| packed_bit(w, i))
}

/// The value of one port bit in optional port words (absent = zero).
fn port_bit(words: Option<&[u64]>, pb: &PortBit) -> bool {
    words.is_some_and(|w| (w[usize::from(pb.port)] >> pb.bit) & 1 == 1)
}

/// Which carrier runs the currently loaded batch, narrowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Tier {
    /// `u64`, up to 64 lanes.
    Narrow,
    /// [`W256`], 65–256 lanes.
    Wide4,
    /// [`W512`], 257–512 lanes.
    Wide8,
}

impl Tier {
    /// The narrowest carrier holding `lanes` lanes.
    fn for_lanes(lanes: usize) -> Tier {
        if lanes <= 64 {
            Tier::Narrow
        } else if lanes <= 256 {
            Tier::Wide4
        } else {
            Tier::Wide8
        }
    }
}

/// Dispatches a wrapper-method body to the active carrier's core (mutably).
/// Expands the body once per tier, so it is generic over the core's lane
/// word.
macro_rules! with_core {
    ($self:ident, $core:ident => $body:expr) => {
        match $self.tier {
            Tier::Narrow => {
                let $core = &mut $self.narrow;
                $body
            }
            Tier::Wide4 => {
                let $core = &mut **$self.wide4.as_mut().expect("W256 core allocated by begin");
                $body
            }
            Tier::Wide8 => {
                let $core = &mut **$self.wide8.as_mut().expect("W512 core allocated by begin");
                $body
            }
        }
    };
}

/// Read-only variant of [`with_core!`].
macro_rules! with_core_ref {
    ($self:ident, $core:ident => $body:expr) => {
        match $self.tier {
            Tier::Narrow => {
                let $core = &$self.narrow;
                $body
            }
            Tier::Wide4 => {
                let $core = &**$self.wide4.as_ref().expect("W256 core allocated by begin");
                $body
            }
            Tier::Wide8 => {
                let $core = &**$self.wide8.as_ref().expect("W512 core allocated by begin");
                $body
            }
        }
    };
}

/// The width-specific half of the engine: every per-net / per-lane buffer,
/// plus the scheduling scratch of the sparse path. One core exists per
/// carrier width actually used; the port tables are shared by all of them
/// through [`BatchSim`].
#[derive(Clone, Debug)]
struct Core<W: LaneWord> {
    /// Dense-path scratch: one word per net; constant nets are
    /// broadcast-seeded once and never overwritten.
    values: Vec<W>,
    /// One word per flip-flop: lanes whose bit differs from the reference
    /// state (see [`state_ref`]) at the current boundary. Zero for every
    /// index not listed in `dirty_dffs`.
    state_diff: Vec<W>,
    /// Indices of flip-flops with a non-zero `state_diff` word.
    dirty_dffs: Vec<u32>,
    /// One word per primary-input bit: lanes whose input in the next step
    /// differs from the reference word. Zero for every index not listed in
    /// `dirty_inputs`.
    input_diff: Vec<W>,
    /// Indices of input bits with a non-zero `input_diff` word.
    dirty_inputs: Vec<u32>,
    /// Sparse-path epoch-stamped net lane-diffs against the golden settle.
    diff_val: Vec<W>,
    diff_epoch: Vec<u64>,
    /// Epoch stamp marking gates already scheduled this cycle.
    sched_epoch: Vec<u64>,
    /// Dirty-gate worklist, bucketed by combinational level.
    buckets: Vec<Vec<GateId>>,
    /// Highest level with a scheduled gate this cycle (sweep bound).
    max_sched_level: usize,
    epoch: u64,
    /// Diverged D-pin collection for the sparse latch: `(dff index, diff)`.
    next_dirty: Vec<(u32, W)>,
    /// Lanes whose state differs from the reference state at the boundary.
    diverged: W,
}

impl<W: LaneWord> Core<W> {
    fn new(circuit: &Circuit, topo: &Topology, input_bits: usize) -> Self {
        let mut values = vec![W::ZERO; circuit.num_nets()];
        for &(net, v) in topo.const_nets() {
            values[net.index()] = W::splat(v);
        }
        Core {
            values,
            state_diff: vec![W::ZERO; circuit.num_dffs()],
            dirty_dffs: Vec::new(),
            input_diff: vec![W::ZERO; input_bits],
            dirty_inputs: Vec::new(),
            diff_val: vec![W::ZERO; circuit.num_nets()],
            diff_epoch: vec![0; circuit.num_nets()],
            sched_epoch: vec![0; circuit.num_gates()],
            buckets: vec![Vec::new(); topo.num_levels()],
            max_sched_level: 0,
            epoch: 0,
            next_dirty: Vec::new(),
            diverged: W::ZERO,
        }
    }

    /// Resets every lane to the reference state with reference inputs.
    fn reset(&mut self) {
        for &i in &self.dirty_dffs {
            self.state_diff[i as usize] = W::ZERO;
        }
        self.dirty_dffs.clear();
        self.clear_inputs();
        self.diverged = W::ZERO;
    }

    fn clear_inputs(&mut self) {
        for &k in &self.dirty_inputs {
            self.input_diff[k as usize] = W::ZERO;
        }
        self.dirty_inputs.clear();
    }

    /// Loads the batched flip sets (XOR packing, so duplicate flips cancel
    /// — the scalar engines' `flip_dff` semantics).
    fn begin(&mut self, scenarios: &[Vec<DffId>]) {
        self.reset();
        for (lane, flips) in scenarios.iter().enumerate() {
            for &d in flips {
                let i = d.index();
                if !self.state_diff[i].any() {
                    self.dirty_dffs
                        .push(u32::try_from(i).expect("dff fits u32"));
                }
                self.state_diff[i] = self.state_diff[i] ^ W::lane_mask(lane);
            }
        }
        let state_diff = &self.state_diff;
        self.dirty_dffs.retain(|&i| state_diff[i as usize].any());
        self.diverged = self
            .dirty_dffs
            .iter()
            .fold(W::ZERO, |m, &i| m | state_diff[i as usize]);
    }

    /// The state columns of lanes `keep`, lane `keep[j]` moved to lane `j`:
    /// `(flip-flop index, lanes)` for every non-zero column.
    fn gather(&self, keep: &[usize]) -> Vec<(u32, LaneMask)> {
        self.dirty_dffs
            .iter()
            .filter_map(|&i| {
                let w = self.state_diff[i as usize];
                let mut m = LaneMask::ZERO;
                for (j, &lane) in keep.iter().enumerate() {
                    if w.get(lane) {
                        m = m | LaneMask::lane_mask(j);
                    }
                }
                m.any().then_some((i, m))
            })
            .collect()
    }

    /// Replaces the batch state with state columns from [`Core::gather`].
    fn load(&mut self, columns: &[(u32, LaneMask)]) {
        self.reset();
        for &(i, m) in columns {
            let w = narrow_mask::<W>(m);
            self.state_diff[i as usize] = w;
            self.dirty_dffs.push(i);
            self.diverged = self.diverged | w;
        }
    }

    /// Resets `lanes` to the reference state.
    fn clear_lanes(&mut self, lanes: W) {
        let keep = !lanes;
        let state_diff = &mut self.state_diff;
        self.dirty_dffs.retain(|&i| {
            let w = state_diff[i as usize] & keep;
            state_diff[i as usize] = w;
            w.any()
        });
        self.diverged = self.diverged & keep;
    }

    /// Marks `lane`'s input bit `k` as deviating from the reference word.
    fn deviate_input(&mut self, k: usize, lane: usize) {
        if !self.input_diff[k].any() {
            self.dirty_inputs
                .push(u32::try_from(k).expect("input bit fits u32"));
        }
        self.input_diff[k] = self.input_diff[k] | W::lane_mask(lane);
    }

    /// The dense path: straight-line evaluation of every plan op. Inside
    /// the trace it diffs against the golden words; past it the reference
    /// is all-zero, so lanes carry absolute values and no output
    /// divergence is reported.
    fn step_dense(
        &mut self,
        plan: &EvalPlan,
        input_bits: &[PortBit],
        output_bits: &[PortBit],
        trace: &GoldenTrace,
        cycle: u64,
    ) -> W {
        let inside = cycle < trace.num_cycles();
        let vals = &mut self.values;
        // 1. The recorded input words, with the lanes' own deviations.
        let golden_inputs = inside.then(|| trace.inputs_at(cycle));
        for (pb, &dev) in input_bits.iter().zip(&self.input_diff) {
            vals[pb.net as usize] = W::splat(port_bit(golden_inputs, pb)) ^ dev;
        }
        // 2. Drive the batched state (reference ^ diff) onto the Q nets.
        let state = state_ref(trace, cycle);
        for (i, &q) in plan.dff_q().iter().enumerate() {
            vals[q as usize] = W::splat(ref_bit(state, i)) ^ self.state_diff[i];
        }
        // 3. The plan's kind-run settle kernel, on lane words.
        plan.settle(vals);
        // 4. Word-wide XOR against the golden output words.
        let mut out_div = W::ZERO;
        if inside {
            let golden_outs = trace.outputs_at(cycle);
            for pb in output_bits {
                let bit = (golden_outs[usize::from(pb.port)] >> pb.bit) & 1 == 1;
                out_div = out_div | (vals[pb.net as usize] ^ W::splat(bit));
            }
        }
        // 5. Latch into diff form against the next reference boundary.
        let next = state_ref(trace, cycle + 1);
        self.dirty_dffs.clear();
        let mut diverged = W::ZERO;
        for (i, &d) in plan.dff_d().iter().enumerate() {
            let diff = vals[d as usize] ^ W::splat(ref_bit(next, i));
            self.state_diff[i] = diff;
            if diff.any() {
                self.dirty_dffs.push(i as u32);
                diverged = diverged | diff;
            }
        }
        self.diverged = diverged;
        self.clear_inputs();
        out_div
    }

    /// The sparse path: seed the dirty-net set with the deviating input
    /// bits and the diverged flip-flop Q nets and propagate through
    /// consumer gates in level order, reading clean fan-in from the trace's
    /// shared golden settle. Gates outside the union of the lanes'
    /// divergence cones are never touched. Returns the output-divergence
    /// mask and the number of gates evaluated.
    ///
    /// `golden` is the 64-cycle golden block containing `cycle` (required
    /// unless the batch is fully converged); bit `cycle % 64` of each word
    /// is this cycle's value.
    fn step_sparse(
        &mut self,
        plan: &EvalPlan,
        topo: &Topology,
        input_bits: &[PortBit],
        golden: Option<&[u64]>,
        cycle: u64,
    ) -> (W, u64) {
        self.epoch += 1;
        self.max_sched_level = self.buckets.len();
        // Fully converged batches ride the golden trace for free.
        if self.dirty_dffs.is_empty() && self.dirty_inputs.is_empty() {
            return (W::ZERO, 0);
        }
        let golden = golden.expect("golden block settled for a dirty sparse step");
        let sh = (cycle % 64) as u32;
        // Seed: deviating input bits, then the Q nets of diverged
        // flip-flops, each carrying its lane diff. An output-registered
        // bit out-diverges right here via its OutputBit consumer.
        let mut out_div = W::ZERO;
        let dirty_inputs = std::mem::take(&mut self.dirty_inputs);
        for &k in &dirty_inputs {
            let diff = std::mem::replace(&mut self.input_diff[k as usize], W::ZERO);
            let net = NetId::from_index(input_bits[k as usize].net as usize);
            out_div = out_div | self.mark_dirty(topo, net, diff);
        }
        self.dirty_inputs = dirty_inputs;
        self.dirty_inputs.clear();
        let dirty = std::mem::take(&mut self.dirty_dffs);
        for &i in &dirty {
            let q = plan.dff_q()[i as usize];
            out_div = out_div
                | self.mark_dirty(
                    topo,
                    NetId::from_index(q as usize),
                    self.state_diff[i as usize],
                );
        }
        self.dirty_dffs = dirty;
        // Levelized cone propagation on lane-packed diff words: each
        // scheduled gate is evaluated once, after all of its (possibly
        // dirty) fan-in.
        let mut visited = 0u64;
        let mut level = 0;
        while level <= self.max_sched_level && level < self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                visited += 1;
                let (kind, ins, out) = plan.op(plan.op_of_gate(g));
                let read = |slot: u32, diff_epoch: &[u64], diff_val: &[W]| {
                    let i = slot as usize;
                    let gw = W::splat((golden[i] >> sh) & 1 == 1);
                    if diff_epoch[i] == self.epoch {
                        gw ^ diff_val[i]
                    } else {
                        gw
                    }
                };
                let out_w = eval_lanes(
                    kind,
                    read(ins[0], &self.diff_epoch, &self.diff_val),
                    read(ins[1], &self.diff_epoch, &self.diff_val),
                    read(ins[2], &self.diff_epoch, &self.diff_val),
                );
                let diff = out_w ^ W::splat((golden[out as usize] >> sh) & 1 == 1);
                if diff.any() {
                    out_div =
                        out_div | self.mark_dirty(topo, NetId::from_index(out as usize), diff);
                }
            }
            level += 1;
        }
        // Latch: only dirty D pins can differ from the next golden state.
        for &i in &self.dirty_dffs {
            self.state_diff[i as usize] = W::ZERO;
        }
        self.dirty_dffs.clear();
        let mut diverged = W::ZERO;
        for (i, diff) in self.next_dirty.drain(..) {
            self.state_diff[i as usize] = diff;
            self.dirty_dffs.push(i);
            diverged = diverged | diff;
        }
        self.diverged = diverged;
        (out_div, visited)
    }

    /// Marks `net` as carrying lane-diff `diff`, scheduling consumer gates
    /// and collecting diverged D pins. Returns the lanes touching an output
    /// bit through this net. Each net is marked at most once per cycle.
    fn mark_dirty(&mut self, topo: &Topology, net: NetId, diff: W) -> W {
        let i = net.index();
        debug_assert_ne!(self.diff_epoch[i], self.epoch, "net marked dirty twice");
        self.diff_val[i] = diff;
        self.diff_epoch[i] = self.epoch;
        let mut out_div = W::ZERO;
        for e in topo.fanouts(net) {
            match e.consumer {
                Consumer::GatePin { gate, .. } => {
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
                Consumer::DffD(d) => {
                    self.next_dirty
                        .push((u32::try_from(d.index()).expect("dff fits u32"), diff));
                }
                Consumer::OutputBit { .. } => out_div = out_div | diff,
            }
        }
        out_div
    }
}

/// A bit-parallel replay engine: up to [`MAX_LANES`] independent fault
/// scenarios evaluated simultaneously against a shared [`GoldenTrace`].
///
/// Each lane is semantically a [`crate::CycleSim`] restored from the golden
/// state at a boundary with that lane's flip set applied, stepped against
/// an environment that produces the recorded input words — or, for lanes
/// given their own words through [`BatchSim::set_lane_inputs`], against
/// that lane's environment. Lanes whose outputs diverge are reported by
/// [`BatchSim::step`]; lanes whose state re-converges drop out of
/// [`BatchSim::divergence_mask`]. Stepping continues past the end of the
/// trace on the dense path.
///
/// Internally one generic engine runs on the narrowest carrier that fits
/// the batch (`u64`, [`W256`] or [`W512`]); every carrier reads the trace's
/// shared per-64-cycle golden settle (whose lanes stand for *trace cycles*,
/// not scenarios).
#[derive(Clone, Debug)]
pub struct BatchSim<'c> {
    circuit: &'c Circuit,
    topo: &'c Topology,
    input_bits: Vec<PortBit>,
    /// Per input port: the index of its bit 0 in `input_bits`, and the
    /// mask of its valid bits.
    input_ports: Vec<(usize, u64)>,
    output_bits: Vec<PortBit>,
    narrow: Core<u64>,
    wide4: Option<Box<Core<W256>>>,
    wide8: Option<Box<Core<W512>>>,
    tier: Tier,
    cycle: u64,
    /// False until the first `step` after `begin` (pending outputs are then
    /// still the golden words of the previous cycle).
    stepped: bool,
    /// True when the most recent `step` ran the dense path (selects the
    /// output-word assembly source in `lane_outputs`).
    dense_last: bool,
    /// Gate-word evaluations since `begin`.
    gates_evaluated: u64,
    /// Gates visited and seed nets seeded by this batch's sparse steps, on
    /// top of [`PRIOR_VISITS_PER_SEED`]; reset by `begin`, so the path
    /// choices depend on the batch alone.
    sparse_visits: u64,
    sparse_seeds: u64,
}

impl<'c> BatchSim<'c> {
    /// Creates a batch engine for `circuit`, evaluating through the
    /// topology's [`EvalPlan`]. Wide-carrier state is allocated lazily on
    /// the first batch that needs it.
    pub fn new(circuit: &'c Circuit, topo: &'c Topology) -> Self {
        let port_bits = |ports: &[delayavf_netlist::Port]| {
            ports
                .iter()
                .enumerate()
                .flat_map(|(pi, port)| {
                    port.nets()
                        .iter()
                        .enumerate()
                        .map(move |(bi, &net)| PortBit {
                            net: u32::try_from(net.index()).expect("net fits u32"),
                            port: u16::try_from(pi).expect("port fits u16"),
                            bit: u16::try_from(bi).expect("bit fits u16"),
                        })
                })
                .collect::<Vec<_>>()
        };
        let input_bits = port_bits(circuit.input_ports());
        let mut base = 0;
        let input_ports = circuit
            .input_ports()
            .iter()
            .map(|port| {
                let width = port.nets().len();
                let mask = if width >= 64 { !0 } else { (1u64 << width) - 1 };
                base += width;
                (base - width, mask)
            })
            .collect();
        BatchSim {
            circuit,
            topo,
            narrow: Core::new(circuit, topo, input_bits.len()),
            input_bits,
            input_ports,
            output_bits: port_bits(circuit.output_ports()),
            wide4: None,
            wide8: None,
            tier: Tier::Narrow,
            cycle: 0,
            stepped: false,
            dense_last: false,
            gates_evaluated: 0,
            sparse_visits: PRIOR_VISITS_PER_SEED.0,
            sparse_seeds: PRIOR_VISITS_PER_SEED.1,
        }
    }

    /// Switches to `tier`, allocating its core on first use.
    fn set_tier(&mut self, tier: Tier) {
        let (circuit, topo, inputs) = (self.circuit, self.topo, self.input_bits.len());
        match tier {
            Tier::Narrow => {}
            Tier::Wide4 => {
                self.wide4
                    .get_or_insert_with(|| Box::new(Core::new(circuit, topo, inputs)));
            }
            Tier::Wide8 => {
                self.wide8
                    .get_or_insert_with(|| Box::new(Core::new(circuit, topo, inputs)));
            }
        }
        self.tier = tier;
    }

    /// Loads a batch: lane `i` starts at `boundary` with `scenarios[i]`
    /// inverted relative to the golden state. Lanes beyond `scenarios.len()`
    /// carry the unmodified golden state (they track the reference and never
    /// diverge). The narrowest carrier that fits the batch is selected:
    /// `u64` up to 64 scenarios, [`W256`] up to 256, [`W512`] beyond.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_LANES`] scenarios are given or `boundary`
    /// is past the end of the trace.
    pub fn begin(&mut self, boundary: u64, scenarios: &[Vec<DffId>], trace: &GoldenTrace) {
        assert!(scenarios.len() <= MAX_LANES, "too many lanes in a batch");
        assert!(
            boundary <= trace.num_cycles(),
            "replay boundary past the golden trace"
        );
        self.set_tier(Tier::for_lanes(scenarios.len()));
        with_core!(self, core => core.begin(scenarios));
        self.cycle = boundary;
        self.stepped = false;
        self.dense_last = false;
        self.gates_evaluated = 0;
        (self.sparse_visits, self.sparse_seeds) = PRIOR_VISITS_PER_SEED;
    }

    /// The current cycle number (the boundary all lanes sit at).
    #[inline]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Gate-word evaluations since [`BatchSim::begin`]: the gates the
    /// sparse path visited plus every gate of each dense step, counted at
    /// full netlist size although a dense gate-word costs about an eighth
    /// of a sparse visit. One evaluation covers every lane of the batch.
    /// Golden-side work is not counted: each trace cycle's golden settle is
    /// computed once per trace and shared by every replay crossing it.
    #[inline]
    pub fn gates_evaluated(&self) -> u64 {
        self.gates_evaluated
    }

    /// Mask of lanes whose flip-flop state differs from the golden state at
    /// the current boundary (meaningful up to the end of the trace). A zero
    /// bit means the lane's state has re-converged.
    #[inline]
    pub fn divergence_mask(&self) -> LaneMask {
        with_core_ref!(self, core => widen(core.diverged))
    }

    /// Sets the input words `lane` receives in the next [`BatchSim::step`]
    /// — the words its own environment produced — in place of the recorded
    /// golden words (all-zero past the end of the trace). Call at most once
    /// per lane and step; lanes without a call receive the recorded words.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is past the carrier running the batch.
    pub fn set_lane_inputs(&mut self, lane: usize, inputs: &[u64], trace: &GoldenTrace) {
        assert!(lane < self.lanes(), "lane out of range");
        let golden = (self.cycle < trace.num_cycles()).then(|| trace.inputs_at(self.cycle));
        let ports = &self.input_ports;
        with_core!(self, core => {
            for (p, (&word, &(base, mask))) in inputs.iter().zip(ports).enumerate() {
                let mut diff = (word ^ golden.map_or(0, |g| g[p])) & mask;
                while diff != 0 {
                    core.deviate_input(base + diff.trailing_zeros() as usize, lane);
                    diff &= diff - 1;
                }
            }
        });
    }

    /// Executes one clock cycle for every lane. Returns the mask of lanes
    /// whose output-port words differ from the golden words this cycle
    /// (their environments may leave the recorded trajectory from the next
    /// cycle on); empty past the end of the trace, where there are no
    /// golden words.
    pub fn step(&mut self, trace: &GoldenTrace) -> LaneMask {
        self.stepped = true;
        // The sparse path runs when its predicted visits — the seed nets
        // times the batch's visits per seed so far — cost no more than
        // one dense sweep.
        let gates = self.topo.plan().len() as u64;
        let seeds =
            with_core!(self, core => core.dirty_dffs.len() + core.dirty_inputs.len()) as u64;
        let sparse = self.cycle < trace.num_cycles()
            && seeds * self.sparse_visits * SPARSE_VISIT_COST <= gates * self.sparse_seeds;
        if sparse {
            let before = self.gates_evaluated;
            let out = self.step_sparse(trace);
            self.sparse_visits += self.gates_evaluated - before;
            self.sparse_seeds += seeds;
            out
        } else {
            self.step_dense(trace)
        }
    }

    /// Runs the dense path for one cycle (the paths are interchangeable per
    /// cycle; `step` picks automatically).
    fn step_dense(&mut self, trace: &GoldenTrace) -> LaneMask {
        self.dense_last = true;
        let cycle = self.cycle;
        let plan = self.topo.plan();
        let out = with_core!(self, core => widen(core.step_dense(
            plan,
            &self.input_bits,
            &self.output_bits,
            trace,
            cycle,
        )));
        self.gates_evaluated += plan.len() as u64;
        self.cycle += 1;
        out
    }

    /// Runs the sparse path for one cycle.
    fn step_sparse(&mut self, trace: &GoldenTrace) -> LaneMask {
        self.dense_last = false;
        let cycle = self.cycle;
        let plan = self.topo.plan();
        let dirty =
            with_core!(self, core => !core.dirty_dffs.is_empty() || !core.dirty_inputs.is_empty());
        let golden = dirty.then(|| trace.golden_block(self.circuit, self.topo, cycle));
        let topo = self.topo;
        let (out, visited) = with_core!(self, core => {
            let (out, visited) = core.step_sparse(plan, topo, &self.input_bits, golden, cycle);
            (widen(out), visited)
        });
        self.gates_evaluated += visited;
        self.cycle += 1;
        out
    }

    /// Lanes of the carrier running the batch (64, 256 or 512).
    fn lanes(&self) -> usize {
        match self.tier {
            Tier::Narrow => 64,
            Tier::Wide4 => 256,
            Tier::Wide8 => 512,
        }
    }

    /// Resets `lanes` to the golden state, so finished lanes stop widening
    /// the sparse path's cone.
    pub fn clear_lanes(&mut self, lanes: LaneMask) {
        with_core!(self, core => core.clear_lanes(narrow_mask(lanes)));
    }

    /// Repacks the lanes in `keep` onto the narrowest carrier that holds
    /// them, if it is narrower than the current one: lane `keep[j]` (in
    /// ascending lane order) moves to lane `j`, and every other lane is
    /// dropped. Returns the old lane of each new lane, or `None` (changing
    /// nothing) when no narrower carrier fits. Lanes are independent, so
    /// the move is exact; call it between steps, after reading any pending
    /// output words, which it does not carry.
    pub fn narrow(&mut self, keep: LaneMask) -> Option<Vec<usize>> {
        let tier = Tier::for_lanes(keep.count_ones() as usize);
        if tier >= self.tier {
            return None;
        }
        let mut lanes = Vec::new();
        keep.for_each_set(MAX_LANES, |l| lanes.push(l));
        let columns = with_core_ref!(self, core => core.gather(&lanes));
        self.set_tier(tier);
        with_core!(self, core => core.load(&columns));
        self.dense_last = false;
        self.stepped = false;
        Some(lanes)
    }

    /// The flip-flops of `lane` whose value differs from the golden state at
    /// the current boundary, sorted by id.
    ///
    /// # Panics
    ///
    /// Panics past the end of the trace, where there is no golden state.
    pub fn lane_divergence(&self, lane: usize, trace: &GoldenTrace) -> Vec<DffId> {
        assert!(lane < MAX_LANES, "lane out of range");
        assert!(
            self.cycle <= trace.num_cycles(),
            "no golden state past the trace"
        );
        let mut flips: Vec<DffId> = with_core_ref!(self, core => core
            .dirty_dffs
            .iter()
            .filter(|&&i| core.state_diff[i as usize].get(lane))
            .map(|&i| DffId::from_index(i as usize))
            .collect());
        flips.sort_unstable();
        flips
    }

    /// The full flip-flop state of `lane` at the current boundary.
    pub fn lane_state_bits(&self, lane: usize, trace: &GoldenTrace) -> Vec<bool> {
        assert!(lane < MAX_LANES, "lane out of range");
        let state = state_ref(trace, self.cycle);
        let num_dffs = self.circuit.num_dffs();
        with_core_ref!(self, core => (0..num_dffs)
            .map(|i| ref_bit(state, i) != core.state_diff[i].get(lane))
            .collect())
    }

    /// The output-port words of `lane` pending for its environment's next
    /// step: the words sampled at the end of the previous cycle (golden
    /// words before the first step, all-zero at a reset boundary).
    pub fn lane_outputs(&self, lane: usize, trace: &GoldenTrace) -> Vec<u64> {
        assert!(lane < MAX_LANES, "lane out of range");
        if !self.stepped {
            return if self.cycle == 0 {
                vec![0; self.circuit.output_ports().len()]
            } else {
                trace.outputs_at(self.cycle - 1).to_vec()
            };
        }
        let output_bits = &self.output_bits;
        if self.dense_last {
            let mut out = vec![0u64; self.circuit.output_ports().len()];
            with_core_ref!(self, core => {
                for pb in output_bits {
                    if core.values[pb.net as usize].get(lane) {
                        out[usize::from(pb.port)] |= 1u64 << pb.bit;
                    }
                }
            });
            return out;
        }
        // Sparse: the golden words of the just-executed cycle with the
        // epoch-current dirty bits patched in.
        let mut out = trace.outputs_at(self.cycle - 1).to_vec();
        with_core_ref!(self, core => {
            for pb in output_bits {
                let i = pb.net as usize;
                if core.diff_epoch[i] == core.epoch && core.diff_val[i].get(lane) {
                    out[usize::from(pb.port)] ^= 1u64 << pb.bit;
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::CycleSim;
    use crate::env::{ConstEnvironment, Environment};
    use delayavf_netlist::CircuitBuilder;

    /// A 4-bit counter (divergence persists), a 4-bit input-reload register
    /// (divergence heals) and a mux-selected output exercising `Mux2`.
    fn fixture() -> Circuit {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let count = b.reg_word("count", 4, 0);
        let next = b.add(&count.q(), &step);
        b.drive_word(&count, &next);
        b.output_word("count", &count.q());
        let reload = b.reg_word("reload", 4, 0);
        b.drive_word(&reload, &step);
        b.output_word("reload", &reload.q());
        let sel = b.reg("sel", false);
        let nsel = b.not(sel.q());
        b.drive(sel, nsel);
        let count_q = count.q();
        let reload_q = reload.q();
        let muxed: delayavf_netlist::Word = count_q
            .bits()
            .iter()
            .zip(reload_q.bits())
            .map(|(&a, &r)| b.mux(sel.q(), a, r))
            .collect();
        b.output_word("muxed", &muxed);
        b.finish().unwrap()
    }

    /// An environment whose input word depends on the outputs it observes
    /// (with high garbage bits the 4-bit port must ignore), so a lane with
    /// diverged outputs receives diverged inputs.
    #[derive(Clone, Debug)]
    struct FeedbackEnv;

    impl Environment for FeedbackEnv {
        fn step(&mut self, cycle: u64, prev_outputs: &[u64], inputs: &mut [u64]) {
            inputs[0] = (prev_outputs[0] ^ (prev_outputs[2] << 1) ^ cycle) | 0xf0;
        }
    }

    fn golden<E: Environment + Clone>(
        c: &Circuit,
        topo: &Topology,
        env: &E,
        cycles: u64,
    ) -> GoldenTrace {
        GoldenTrace::record(c, topo, &mut env.clone(), cycles)
    }

    /// A scalar reference lane: CycleSim restored at the boundary with the
    /// flips applied, stepped in lockstep.
    fn scalar_lane<'a>(
        c: &'a Circuit,
        topo: &'a Topology,
        trace: &GoldenTrace,
        boundary: u64,
        flips: &[DffId],
    ) -> CycleSim<'a> {
        let mut sim = CycleSim::new(c, topo);
        let prev = if boundary == 0 {
            vec![0; c.output_ports().len()]
        } else {
            trace.outputs_at(boundary - 1).to_vec()
        };
        sim.restore(
            boundary,
            &trace.state_bits_at(boundary, c.num_dffs()),
            &prev,
        );
        for &f in flips {
            sim.flip_dff(f);
        }
        sim
    }

    /// Which step implementation a lockstep check drives inside the trace
    /// (past it only the dense path exists).
    #[derive(Clone, Copy, PartialEq)]
    enum Path {
        Auto,
        Dense,
        Sparse,
    }

    /// Locksteps a batch against per-lane scalar replays on the chosen step
    /// path (the paths are interchangeable per cycle, so forcing either one
    /// for a whole run must still match the scalar engines exactly). Under
    /// `Some(env)` every lane steps its own copy of `env` on the batch's
    /// output words for that lane, and the run continues `past` cycles
    /// beyond the end of the trace.
    fn check_lockstep(scenarios: &[Vec<DffId>], path: Path, env: Option<FeedbackEnv>, past: u64) {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = match &env {
            Some(e) => golden(&c, &topo, e, 10),
            None => golden(&c, &topo, &ConstEnvironment::new(vec![3]), 10),
        };
        let boundary = 2u64;
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(boundary, scenarios, &trace);

        let mut scalars: Vec<CycleSim> = scenarios
            .iter()
            .map(|fl| scalar_lane(&c, &topo, &trace, boundary, fl))
            .collect();
        let mut const_env = ConstEnvironment::new(vec![3]);
        let mut envs = vec![FeedbackEnv; scenarios.len()];
        let mut lane_envs = vec![FeedbackEnv; scenarios.len()];
        let n = trace.num_cycles();
        let mut inputs = vec![0u64; 1];

        while batch.cycle() < n + past {
            let inside = batch.cycle() <= n;
            for (lane, sim) in scalars.iter().enumerate() {
                assert_eq!(
                    batch.lane_state_bits(lane, &trace),
                    sim.state(),
                    "lane {lane} at cycle {}",
                    batch.cycle()
                );
                if inside {
                    let golden_state = trace.state_at(batch.cycle());
                    let scalar_div = sim
                        .state()
                        .iter()
                        .enumerate()
                        .any(|(i, &b)| b != packed_bit(golden_state, i));
                    assert_eq!(
                        batch.divergence_mask().get(lane),
                        scalar_div,
                        "divergence mask lane {lane}"
                    );
                }
            }
            if env.is_some() {
                for (lane, lane_env) in lane_envs.iter_mut().enumerate() {
                    inputs[0] = 0;
                    lane_env.step(
                        batch.cycle(),
                        &batch.lane_outputs(lane, &trace),
                        &mut inputs,
                    );
                    batch.set_lane_inputs(lane, &inputs, &trace);
                }
            }
            let out_div = if batch.cycle() >= n {
                batch.step(&trace)
            } else {
                batch.stepped = true;
                match path {
                    Path::Auto => batch.step(&trace),
                    Path::Dense => batch.step_dense(&trace),
                    Path::Sparse => batch.step_sparse(&trace),
                }
            };
            for (lane, sim) in scalars.iter_mut().enumerate() {
                match env {
                    Some(_) => sim.step(&mut envs[lane]),
                    None => sim.step(&mut const_env),
                }
                assert_eq!(
                    batch.lane_outputs(lane, &trace),
                    sim.last_outputs(),
                    "outputs lane {lane} at cycle {}",
                    batch.cycle()
                );
                let diverged =
                    batch.cycle() <= n && sim.last_outputs() != trace.outputs_at(batch.cycle() - 1);
                assert_eq!(out_div.get(lane), diverged, "out_div lane {lane}");
            }
        }
    }

    /// A partial batch of 5 scenarios, including an empty flip set.
    fn small_scenarios(c: &Circuit) -> Vec<Vec<DffId>> {
        let dffs: Vec<DffId> = c.dffs().map(|(id, _)| id).collect();
        vec![
            vec![dffs[0]],
            vec![dffs[4]],
            vec![dffs[0], dffs[5], dffs[8]],
            vec![],
            vec![dffs[8]],
        ]
    }

    #[test]
    fn every_lane_matches_scalar_replay() {
        let scenarios = small_scenarios(&fixture());
        for path in [Path::Auto, Path::Dense, Path::Sparse] {
            check_lockstep(&scenarios, path, None, 0);
        }
    }

    /// Lanes on their own output-dependent environments — whose inputs
    /// leave the recorded words once their outputs diverge — match scalar
    /// replays on every path, and keep matching past the end of the trace.
    #[test]
    fn lanes_on_private_environments_match_scalar_replay_past_the_trace() {
        let scenarios = small_scenarios(&fixture());
        for path in [Path::Auto, Path::Dense, Path::Sparse] {
            check_lockstep(&scenarios, path, Some(FeedbackEnv), 6);
        }
        let wide = spread_scenarios(&fixture(), 70);
        check_lockstep(&wide, Path::Auto, Some(FeedbackEnv), 3);
    }

    /// A deterministic spread of flip sets over `n` lanes, cycling through
    /// the fixture's flip-flops so neighbouring lanes differ.
    fn spread_scenarios(c: &Circuit, n: usize) -> Vec<Vec<DffId>> {
        let dffs: Vec<DffId> = c.dffs().map(|(id, _)| id).collect();
        (0..n)
            .map(|lane| match lane % 4 {
                0 => vec![dffs[lane % dffs.len()]],
                1 => vec![dffs[lane % dffs.len()], dffs[(lane + 3) % dffs.len()]],
                2 => vec![],
                _ => vec![dffs[(lane + 5) % dffs.len()]],
            })
            .collect()
    }

    /// 65+ scenarios select the 256-lane carrier; every lane must still
    /// match its scalar replay on both paths.
    #[test]
    fn wide256_batches_match_scalar_replay() {
        let c = fixture();
        let scenarios = spread_scenarios(&c, 70);
        check_lockstep(&scenarios, Path::Auto, None, 0);
        check_lockstep(&scenarios, Path::Dense, None, 0);
        check_lockstep(&scenarios, Path::Sparse, None, 0);
    }

    /// 257+ scenarios select the 512-lane carrier.
    #[test]
    fn wide512_batches_match_scalar_replay() {
        let c = fixture();
        let scenarios = spread_scenarios(&c, 300);
        check_lockstep(&scenarios, Path::Auto, None, 0);
        check_lockstep(&scenarios, Path::Sparse, None, 0);
    }

    /// The sparse/dense choice learns visits per seed within one batch: a
    /// batch's gate-word count is the same on a fresh engine as after
    /// other batches ran on it.
    #[test]
    fn path_choices_depend_on_the_batch_alone() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 10);
        let run = |batch: &mut BatchSim, scenarios: &[Vec<DffId>]| {
            batch.begin(1, scenarios, &trace);
            while batch.cycle() < trace.num_cycles() {
                batch.step(&trace);
            }
            batch.gates_evaluated()
        };
        let dffs: Vec<DffId> = c.dffs().map(|(id, _)| id).collect();
        let earlier = [
            spread_scenarios(&c, 40),
            vec![dffs.clone()],
            vec![vec![dffs[4]]; 8],
        ];
        for scenarios in [small_scenarios(&c), vec![vec![dffs[8]]; 3]] {
            let fresh = run(&mut BatchSim::new(&c, &topo), &scenarios);
            assert!(fresh > 0);
            for before in &earlier {
                let mut reused = BatchSim::new(&c, &topo);
                run(&mut reused, before);
                assert_eq!(run(&mut reused, &scenarios), fresh);
            }
        }
    }

    #[test]
    fn carrier_tier_tracks_batch_size() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 6);
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(1, &spread_scenarios(&c, 3), &trace);
        assert_eq!(batch.tier, Tier::Narrow);
        assert!(batch.wide4.is_none() && batch.wide8.is_none(), "lazy wides");
        batch.begin(1, &spread_scenarios(&c, 64), &trace);
        assert_eq!(batch.tier, Tier::Narrow, "64 still fits u64");
        batch.begin(1, &spread_scenarios(&c, 65), &trace);
        assert_eq!(batch.tier, Tier::Wide4);
        batch.begin(1, &spread_scenarios(&c, 257), &trace);
        assert_eq!(batch.tier, Tier::Wide8);
        batch.begin(1, &spread_scenarios(&c, 2), &trace);
        assert_eq!(batch.tier, Tier::Narrow, "narrow batches re-narrow");
    }

    /// Narrowing a 300-lane batch to a few surviving lanes moves them onto
    /// the `u64` carrier, where they keep matching their scalar replays;
    /// narrowing is refused while the survivors still need the width.
    #[test]
    fn narrowed_lanes_keep_matching_scalar_replay() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 12);
        let scenarios = spread_scenarios(&c, 300);
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(2, &scenarios, &trace);
        batch.step(&trace);
        assert_eq!(batch.narrow(LaneMask::prefix(300)), None, "no narrower fit");
        assert_eq!(batch.tier, Tier::Wide8);
        let survivors = [1usize, 5, 64, 200, 299];
        let mut keep = LaneMask::ZERO;
        for &l in &survivors {
            keep = keep | LaneMask::lane_mask(l);
        }
        assert_eq!(batch.narrow(keep), Some(survivors.to_vec()));
        assert_eq!(batch.tier, Tier::Narrow);
        let mut env = ConstEnvironment::new(vec![3]);
        let mut scalars: Vec<CycleSim> = survivors
            .iter()
            .map(|&l| {
                let mut s = scalar_lane(&c, &topo, &trace, 2, &scenarios[l]);
                s.step(&mut env);
                s
            })
            .collect();
        while batch.cycle() < trace.num_cycles() {
            for (lane, sim) in scalars.iter().enumerate() {
                assert_eq!(batch.lane_state_bits(lane, &trace), sim.state());
            }
            batch.step(&trace);
            for (lane, sim) in scalars.iter_mut().enumerate() {
                sim.step(&mut env);
                assert_eq!(batch.lane_outputs(lane, &trace), sim.last_outputs());
            }
        }
    }

    /// Cleared lanes return to the golden state and leave the others alone.
    #[test]
    fn cleared_lanes_track_golden() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 8);
        let scenarios = small_scenarios(&c);
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(2, &scenarios, &trace);
        batch.clear_lanes(LaneMask::lane_mask(0) | LaneMask::lane_mask(2));
        let div = batch.divergence_mask();
        assert!(!div.get(0) && !div.get(2), "cleared lanes converge");
        assert!(div.get(1) && div.get(4), "other lanes keep their flips");
        assert_eq!(batch.lane_divergence(1, &trace), scenarios[1]);
    }

    #[test]
    fn unused_lanes_track_golden() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 6);
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(1, &[], &trace);
        assert!(!batch.divergence_mask().any());
        while batch.cycle() < trace.num_cycles() {
            assert!(!batch.step(&trace).any(), "golden lanes never out-diverge");
            assert!(!batch.divergence_mask().any());
        }
        assert_eq!(
            batch.gates_evaluated(),
            0,
            "converged batches evaluate nothing"
        );
    }

    #[test]
    fn lane_divergence_matches_flips_at_begin() {
        let c = fixture();
        let topo = Topology::new(&c);
        let trace = golden(&c, &topo, &ConstEnvironment::new(vec![3]), 6);
        let dffs: Vec<DffId> = c.dffs().map(|(id, _)| id).collect();
        let mut flips = vec![dffs[5], dffs[0], dffs[2]];
        let mut batch = BatchSim::new(&c, &topo);
        batch.begin(3, &[flips.clone()], &trace);
        flips.sort_unstable();
        assert_eq!(batch.lane_divergence(0, &trace), flips);
        assert_eq!(
            batch.lane_outputs(0, &trace),
            trace.outputs_at(2),
            "pre-step outputs are golden"
        );
    }
}
