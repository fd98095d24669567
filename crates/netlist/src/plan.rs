//! A struct-of-arrays compilation of the combinational logic: the
//! [`EvalPlan`].
//!
//! Every simulator in the workspace repeatedly walks the circuit's gates in
//! a dependency-respecting order. Doing that over [`crate::Gate`] records
//! means chasing one heap-allocated `inputs` slice per gate per cycle —
//! fine for a one-off settle, but it dominates the dense inner loops of the
//! bit-parallel replay engines, where a single pass touches every gate of
//! the netlist for up to 512 packed fault scenarios at once.
//!
//! The plan flattens that walk into contiguous parallel arrays compiled
//! once per [`crate::Topology`]:
//!
//! * **ops in (level, kind) order** — ops are sorted by combinational
//!   level, and within a level by [`GateKind`]. Level order is a valid
//!   topological order (a gate's level strictly exceeds every gate-driven
//!   input's level), and ops of one level never read each other, so any
//!   order inside a level is one too;
//! * **flattened input-index triples** — three `u32` net slots per op
//!   (unused pins of lower-arity kinds repeat slot 0);
//! * **output slots** — one `u32` net slot per op;
//! * **level offsets** ([`EvalPlan::level_offsets`]) —
//!   `level_offsets[l]..level_offsets[l + 1]` is level `l`'s op range;
//! * **kind runs** ([`EvalPlan::runs`]) — the maximal `(kind, start, end)`
//!   op ranges of one kind inside one level, which tile `0..len()`;
//! * **flip-flop remaps** ([`EvalPlan::dff_q`] / [`EvalPlan::dff_d`]) —
//!   the Q and D net slot of every flip-flop, in [`crate::DffId`] order.
//!
//! [`EvalPlan::settle`] is the one dense kernel every engine shares: for
//! any bitwise value type — `bool`, a `u64` of 64 packed cycles or fault
//! lanes, a wide lane word — it runs one tight loop per kind run, with the
//! gate function fixed for the whole run and only the pins that kind uses
//! read. A levelized cone sweep indexes single ops through
//! [`EvalPlan::op_of_gate`] and [`EvalPlan::op`]. The plan encodes exactly
//! the same evaluation the [`crate::Gate`] records describe; the tests
//! below and `crates/sim/tests/prop_eval_plan.rs` pin the equivalence.

use std::ops::{BitAnd, BitOr, BitXor, Not};

use crate::circuit::Circuit;
use crate::gate::GateKind;
use crate::ids::{GateId, NetId};

/// A levelized struct-of-arrays gate program for one circuit, compiled once
/// by [`crate::Topology::new`] and shared by every simulator.
///
/// Ops appear sorted by (combinational level, [`GateKind`]), ties broken by
/// the original topological order; walking `0..len()` evaluates every gate
/// after all of its inputs.
#[derive(Clone, Debug)]
pub struct EvalPlan {
    /// Opcode of each compiled op.
    kinds: Vec<GateKind>,
    /// Input net slots of each op; unused pins repeat slot 0.
    ins: Vec<[u32; 3]>,
    /// Output net slot of each op.
    outs: Vec<u32>,
    /// Op index of each gate (indexed by raw [`GateId`]).
    op_of_gate: Vec<u32>,
    /// `level_offsets[l]..level_offsets[l + 1]` is the op range of
    /// combinational level `l`; length `num_levels + 1`.
    level_offsets: Vec<u32>,
    /// `(kind, start, end)`: the maximal one-kind op ranges inside one
    /// level, in plan order.
    runs: Vec<(GateKind, u32, u32)>,
    /// Q net slot of each flip-flop, in [`crate::DffId`] order.
    dff_q: Vec<u32>,
    /// D net slot of each flip-flop, in [`crate::DffId`] order.
    dff_d: Vec<u32>,
}

/// Runs `f` over every op of one unary run: `vals[out] = f(vals[a])`.
#[inline(always)]
fn run1<T: Copy>(ins: &[[u32; 3]], outs: &[u32], vals: &mut [T], f: impl Fn(T) -> T) {
    for (&[a, ..], &o) in ins.iter().zip(outs) {
        vals[o as usize] = f(vals[a as usize]);
    }
}

/// Runs `f` over every op of one binary run: `vals[out] = f(vals[a],
/// vals[b])`.
#[inline(always)]
fn run2<T: Copy>(ins: &[[u32; 3]], outs: &[u32], vals: &mut [T], f: impl Fn(T, T) -> T) {
    for (&[a, b, _], &o) in ins.iter().zip(outs) {
        vals[o as usize] = f(vals[a as usize], vals[b as usize]);
    }
}

impl EvalPlan {
    /// Compiles the plan from a circuit and its topological products.
    pub(crate) fn new(
        c: &Circuit,
        eval_order: &[GateId],
        gate_level: &[u32],
        num_levels: u32,
    ) -> Self {
        let slot = |n: NetId| u32::try_from(n.index()).expect("net fits u32");
        // A gate's bucket is (level, kind); `kind as usize` is the kind's
        // position in `GateKind::ALL`, which lists the variants in order.
        let kinds_per_level = GateKind::ALL.len();
        let bucket = |g: GateId| {
            gate_level[g.index()] as usize * kinds_per_level + c.gate(g).kind() as usize
        };
        // Counting sort by (level, kind) keeps the compile linear and the
        // tie-break stable on the original topological order.
        let mut starts = vec![0u32; num_levels as usize * kinds_per_level + 1];
        for &g in eval_order {
            starts[bucket(g) + 1] += 1;
        }
        for b in 1..starts.len() {
            starts[b] += starts[b - 1];
        }
        let level_offsets: Vec<u32> = starts.iter().step_by(kinds_per_level).copied().collect();
        let runs = starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(b, w)| (GateKind::ALL[b % kinds_per_level], w[0], w[1]))
            .collect();
        let n = eval_order.len();
        let mut kinds = vec![GateKind::Buf; n];
        let mut ins = vec![[0u32; 3]; n];
        let mut outs = vec![0u32; n];
        let mut op_of_gate = vec![u32::MAX; c.num_gates()];
        let mut cursor = starts;
        for &g in eval_order {
            let gate = c.gate(g);
            let at = &mut cursor[bucket(g)];
            let i = *at as usize;
            op_of_gate[g.index()] = *at;
            *at += 1;
            kinds[i] = gate.kind();
            let pins = gate.inputs();
            let a = slot(pins[0]);
            ins[i] = [
                a,
                pins.get(1).map_or(a, |&p| slot(p)),
                pins.get(2).map_or(a, |&p| slot(p)),
            ];
            outs[i] = slot(gate.output());
        }
        let mut dff_q = Vec::with_capacity(c.num_dffs());
        let mut dff_d = Vec::with_capacity(c.num_dffs());
        for (_, dff) in c.dffs() {
            dff_q.push(slot(dff.q()));
            dff_d.push(slot(dff.d()));
        }
        EvalPlan {
            kinds,
            ins,
            outs,
            op_of_gate,
            level_offsets,
            runs,
            dff_q,
            dff_d,
        }
    }

    /// Number of compiled ops (= number of gates).
    #[inline]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True for a gateless circuit.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The op index compiled for `gate`.
    #[inline]
    pub fn op_of_gate(&self, gate: GateId) -> u32 {
        self.op_of_gate[gate.index()]
    }

    /// One op's `(kind, input slots, output slot)`. Unused pins of
    /// lower-arity kinds repeat pin 0's slot.
    #[inline]
    pub fn op(&self, i: u32) -> (GateKind, [u32; 3], u32) {
        let i = i as usize;
        (self.kinds[i], self.ins[i], self.outs[i])
    }

    /// Per-level op ranges: `level_offsets()[l]..level_offsets()[l + 1]` is
    /// the contiguous run of level-`l` ops; length `num_levels + 1`.
    #[inline]
    pub fn level_offsets(&self) -> &[u32] {
        &self.level_offsets
    }

    /// The kind runs, in plan order: `(kind, start, end)` says ops
    /// `start..end` all have `kind` and one level. The runs tile
    /// `0..len()`.
    #[inline]
    pub fn runs(&self) -> &[(GateKind, u32, u32)] {
        &self.runs
    }

    /// The Q net slot of each flip-flop, in [`crate::DffId`] order.
    #[inline]
    pub fn dff_q(&self) -> &[u32] {
        &self.dff_q
    }

    /// The D net slot of each flip-flop, in [`crate::DffId`] order.
    #[inline]
    pub fn dff_d(&self) -> &[u32] {
        &self.dff_d
    }

    /// Settles the combinational logic in place: evaluates every op in plan
    /// order over the net-value table `vals` (indexed by raw net id),
    /// reading the values already there for primary inputs, flip-flop Q
    /// nets and constants, and overwriting every gate output.
    ///
    /// `T` is any value with bitwise gate semantics: `bool` for one
    /// scalar settle, or a word whose bits are independent lanes (cycles
    /// or fault scenarios), each settled as `bool` would be. `Mux2` is
    /// `a ^ (s & (a ^ b))` for pins `[s, a, b]`.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is shorter than the circuit's net count.
    pub fn settle<T>(&self, vals: &mut [T])
    where
        T: Copy + BitAnd<Output = T> + BitOr<Output = T> + BitXor<Output = T> + Not<Output = T>,
    {
        for &(kind, start, end) in &self.runs {
            let range = start as usize..end as usize;
            let (ins, outs) = (&self.ins[range.clone()], &self.outs[range]);
            match kind {
                GateKind::Buf => run1(ins, outs, vals, |a| a),
                GateKind::Not => run1(ins, outs, vals, |a| !a),
                GateKind::And2 => run2(ins, outs, vals, |a, b| a & b),
                GateKind::Or2 => run2(ins, outs, vals, |a, b| a | b),
                GateKind::Nand2 => run2(ins, outs, vals, |a, b| !(a & b)),
                GateKind::Nor2 => run2(ins, outs, vals, |a, b| !(a | b)),
                GateKind::Xor2 => run2(ins, outs, vals, |a, b| a ^ b),
                GateKind::Xnor2 => run2(ins, outs, vals, |a, b| !(a ^ b)),
                GateKind::Mux2 => {
                    for (&[s, a, b], &o) in ins.iter().zip(outs) {
                        let (s, a, b) = (vals[s as usize], vals[a as usize], vals[b as usize]);
                        vals[o as usize] = a ^ (s & (a ^ b));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::CircuitBuilder;
    use crate::circuit::Circuit;
    use crate::gate::GateKind;
    use crate::topo::Topology;

    /// A small but representative circuit: every gate arity, a constant, a
    /// flip-flop, multi-level word logic.
    fn sample() -> Circuit {
        let mut b = CircuitBuilder::new();
        let a = b.input_word("a", 8);
        let c = b.input_word("c", 8);
        let sel = b.input("sel");
        let one = b.const_bit(true);
        let sum = b.add(&a, &c);
        let pick = b.mux_word(sel, &sum, &c);
        let r = b.reg_word("r", 8, 0);
        let fb = b.w_xor(&pick, &r.q());
        let gated = b.gate(GateKind::Nand2, &[fb.bit(0), one]);
        let red = b.gate(GateKind::Nor2, &[fb.bit(1), gated]);
        let flip = b.gate(GateKind::Xnor2, &[red, sel]);
        b.drive_word(&r, &fb);
        b.output("flip", flip);
        b.output_word("fb", &fb);
        b.finish().expect("valid circuit")
    }

    /// Settles the circuit three ways — the per-gate `eval_order` walk, the
    /// op-by-op plan walk and the kind-run kernel — and checks every net
    /// agrees.
    #[test]
    fn plan_walk_matches_gate_walk() {
        let c = sample();
        let topo = Topology::new(&c);
        let plan = topo.plan();
        assert_eq!(plan.len(), c.num_gates());
        for seed in 0..8u64 {
            let mut vals = vec![false; c.num_nets()];
            for (i, (id, _)) in c.nets().enumerate() {
                vals[id.index()] = (seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)) & 1 == 1;
            }
            topo.seed_consts(&mut vals);
            let mut by_gate = vals.clone();
            for &g in topo.eval_order() {
                let gate = c.gate(g);
                by_gate[gate.output().index()] = gate.eval_in(&by_gate);
            }
            let mut by_plan = vals.clone();
            for i in 0..plan.len() {
                let (kind, [pa, pb, pc], out) = plan.op(i as u32);
                by_plan[out as usize] = kind.eval3(
                    by_plan[pa as usize],
                    by_plan[pb as usize],
                    by_plan[pc as usize],
                );
            }
            assert_eq!(by_plan, by_gate, "plan walk diverged at seed {seed}");
            let mut settled = vals;
            plan.settle(&mut settled);
            assert_eq!(settled, by_gate, "settle kernel diverged at seed {seed}");
        }
    }

    /// Plan order is level-ascending, `level_offsets` brackets each level,
    /// and `op_of_gate` round-trips to the gate's own output slot.
    #[test]
    fn plan_is_levelized_and_indexed() {
        let c = sample();
        let topo = Topology::new(&c);
        let plan = topo.plan();
        let offs = plan.level_offsets();
        assert_eq!(offs.len(), topo.num_levels() + 1);
        assert_eq!(offs[0], 0);
        assert_eq!(*offs.last().unwrap() as usize, plan.len());
        assert!(topo.num_levels() > 1, "sample circuit is multi-level");
        for &g in topo.eval_order() {
            let op = plan.op_of_gate(g);
            let lvl = topo.gate_level(g) as usize;
            assert!(offs[lvl] <= op && op < offs[lvl + 1]);
            let gate = c.gate(g);
            let (kind, ins, out) = plan.op(op);
            assert_eq!(kind, gate.kind());
            assert_eq!(out as usize, gate.output().index());
            for (pin, &net) in gate.inputs().iter().enumerate() {
                assert_eq!(ins[pin] as usize, net.index());
            }
        }
        for (i, (_, dff)) in c.dffs().enumerate() {
            assert_eq!(plan.dff_q()[i] as usize, dff.q().index());
            assert_eq!(plan.dff_d()[i] as usize, dff.d().index());
        }
    }

    /// `eval3` ignores the unused pins the plan fills with pin 0's slot.
    #[test]
    fn eval3_matches_eval_for_all_kinds() {
        for kind in GateKind::ALL {
            for bits in 0..8u8 {
                let a = bits & 1 != 0;
                let b = bits & 2 != 0;
                let c = bits & 4 != 0;
                let ins = [a, b, c];
                assert_eq!(
                    kind.eval3(a, b, c),
                    kind.eval(&ins[..kind.arity()]),
                    "{kind} on {ins:?}"
                );
            }
        }
    }
}
