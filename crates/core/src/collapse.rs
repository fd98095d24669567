//! Pre-simulation fault collapsing: equivalence classes over injection
//! sites plus the semi-formal masking check.
//!
//! Campaigns inject one small delay fault per (edge, cycle, delay) triple,
//! but many edges are *provably interchangeable*: an extra delay `d` on the
//! input edge of an effectively-unary gate whose output funnels through a
//! single fanout produces — cycle for cycle, event for event — the same
//! latched values as the same delay on that downstream edge. The
//! [`CollapsePlan`] partitions edges into such chain classes before any
//! simulation runs, using two independent structural certificates:
//!
//! 1. **Same-slack**: the two edges' downstream-slack views
//!    ([`TimingModel::edge_slack_entries`]) must be *equal* — the absolute
//!    longest-path lengths to every reachable flip-flop agree, so the edges
//!    behave identically under every extra delay and guardband.
//! 2. **Structural dominator**: the chain gate's output net must be
//!    post-dominated ([`Topology::post_dominators`]) by exactly the sink
//!    its single fanout feeds, certifying that no value change can bypass
//!    the downstream edge on its way to a latch or output.
//!
//! The plan also precomputes the ingredients of the *semi-formal masking
//! check* ([`propagate_flips`]): which nets feed primary outputs and which
//! flip-flops can ever (transitively, across cycles) influence one. A flip
//! group whose downstream cone provably cannot reach the environment is
//! discharged as Masked without invoking any replay engine; a cone that
//! provably deviates an observed output word is discharged as SDC when the
//! environment's transcript contract
//! ([`delayavf_sim::Environment::deterministic_transcript`]) allows it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use delayavf_netlist::{
    Circuit, Consumer, DffId, Driver, EdgeId, GateId, GateKind, NetId, Topology,
};
use delayavf_timing::TimingModel;

/// The precomputed fault-collapsing partition of a circuit's edges, plus
/// the reachability tables used by the semi-formal masking check. Built
/// once per [`crate::Injector`] (lazily, only when collapsing is enabled);
/// depends solely on the circuit, topology and timing model, never on the
/// golden trace — so every worker derives the identical plan. Apart from
/// the timing model's shared slack table, which it reads, the build is
/// linear in the circuit: one pass over the edges and one reverse pass
/// over the nets.
pub struct CollapsePlan {
    /// Per edge: the representative of its equivalence class (itself for
    /// singleton classes). Chains are path-compressed, so a member points
    /// directly at the final edge of its chain.
    rep: Vec<EdgeId>,
    /// Per edge: true when at least one *other* edge collapses onto it.
    is_rep: Vec<bool>,
    /// Number of edges with a representative other than themselves.
    num_members: usize,
    /// Per flip-flop: whether a flip can ever — through any number of
    /// cycles of state propagation — influence a primary-output bit.
    influences: Vec<bool>,
    /// Per net: whether the net directly feeds a primary-output bit.
    output_net: Vec<bool>,
}

impl CollapsePlan {
    /// Builds the plan: chain-collapses edges under the same-slack +
    /// structural-dominator criterion and precomputes the output
    /// reachability tables.
    pub fn build(c: &Circuit, topo: &Topology, timing: &TimingModel) -> Self {
        let pdom = topo.post_dominators(c);
        let n_edges = topo.edges().len();
        let mut next: Vec<Option<EdgeId>> = Vec::with_capacity(n_edges);
        for i in 0..n_edges {
            next.push(chain_next(c, topo, timing, &pdom, EdgeId::from_index(i)));
        }
        // Path-compress each chain to its final edge. Chains only move
        // deeper into the combinational DAG, so iterative resolution
        // terminates without cycle checks.
        let mut rep: Vec<Option<EdgeId>> = vec![None; n_edges];
        for i in 0..n_edges {
            let mut chain = Vec::new();
            let mut cur = EdgeId::from_index(i);
            while rep[cur.index()].is_none() {
                match next[cur.index()] {
                    Some(n) => {
                        chain.push(cur);
                        cur = n;
                    }
                    None => break,
                }
            }
            let r = rep[cur.index()].unwrap_or(cur);
            rep[cur.index()] = Some(r);
            for e in chain {
                rep[e.index()] = Some(r);
            }
        }
        let rep: Vec<EdgeId> = rep
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| EdgeId::from_index(i)))
            .collect();
        let mut is_rep = vec![false; n_edges];
        let mut num_members = 0;
        for (i, &r) in rep.iter().enumerate() {
            if r.index() != i {
                is_rep[r.index()] = true;
                num_members += 1;
            }
        }

        let output_net = output_net_table(c, topo);
        let influences = influence_closure(c, &output_net);
        CollapsePlan {
            rep,
            is_rep,
            num_members,
            influences,
            output_net,
        }
    }

    /// The representative edge of `edge`'s equivalence class (`edge` itself
    /// for singleton classes).
    #[inline]
    pub fn representative(&self, edge: EdgeId) -> EdgeId {
        self.rep[edge.index()]
    }

    /// True when at least one other edge collapses onto `edge`.
    #[inline]
    pub fn is_representative(&self, edge: EdgeId) -> bool {
        self.is_rep[edge.index()]
    }

    /// Number of edges whose representative is another edge — the count of
    /// injection sites the collapsing layer never has to simulate.
    #[inline]
    pub fn num_members(&self) -> usize {
        self.num_members
    }

    /// Whether a flip of `dff` can ever influence a primary output, through
    /// any number of cycles of sequential propagation. `false` certifies
    /// the flip is architecturally invisible forever.
    #[inline]
    pub fn influences_output(&self, dff: DffId) -> bool {
        self.influences[dff.index()]
    }

    /// Whether `net` directly feeds a primary-output bit.
    #[inline]
    pub fn is_output_net(&self, net: NetId) -> bool {
        self.output_net[net.index()]
    }
}

/// The chain link of `e1`, if any: the sole downstream edge `e2` such that
/// delaying `e1` by any extra is event-for-event equivalent to delaying
/// `e2` by the same extra.
///
/// Requirements (see the module docs for why each is load-bearing):
/// * `e1` feeds a gate pin and its source is not a constant net;
/// * the gate is *effectively unary* with respect to that pin (its other
///   pins are constants that make the output a function of this pin
///   alone), so the output waveform is the pin waveform up to inversion;
/// * the gate's output net has exactly one fanout edge `e2`, and the
///   post-dominator of the output net certifies that `e2`'s sink is the
///   only way forward (the structural-dominator half of the criterion);
/// * the downstream-slack views of `e1` and `e2` are equal (the same-slack
///   half): both edges reach the same flip-flops over the same absolute
///   path lengths, so the static filter and reachable sets agree under
///   every extra delay.
fn chain_next(
    c: &Circuit,
    topo: &Topology,
    timing: &TimingModel,
    pdom: &[Option<NetId>],
    e1: EdgeId,
) -> Option<EdgeId> {
    let edge = topo.edge(e1);
    let Consumer::GatePin { gate, pin } = edge.consumer else {
        return None;
    };
    if matches!(c.net(edge.source).driver(), Driver::Const(_)) {
        return None;
    }
    if !effectively_unary(c, gate, pin) {
        return None;
    }
    let out = c.gate(gate).output();
    let mut fan = topo.fanout_ids(out);
    let e2 = fan.next()?;
    if fan.next().is_some() {
        return None;
    }
    // Structural-dominator certificate: with a single fanout, the output
    // net's immediate post-dominator must be exactly where that fanout
    // leads — the consuming gate's output for a gate-pin sink, the virtual
    // sequential EXIT for a latch or output-port sink. A mismatch means
    // the dominator pass and the fanout list disagree about the circuit's
    // structure, so the link is rejected.
    let certified = match topo.edge(e2).consumer {
        Consumer::GatePin { gate: g2, .. } => pdom[out.index()] == Some(c.gate(g2).output()),
        Consumer::DffD(_) | Consumer::OutputBit { .. } => pdom[out.index()].is_none(),
    };
    if !certified {
        return None;
    }
    if timing.edge_slack_entries(c, topo, e1) != timing.edge_slack_entries(c, topo, e2) {
        return None;
    }
    Some(e2)
}

/// Whether `gate` computes a function of `pin` alone — identity or
/// inversion of that pin — because every other pin is tied to a constant
/// that keeps it transparent.
fn effectively_unary(c: &Circuit, gate: GateId, pin: u8) -> bool {
    let g = c.gate(gate);
    let const_val = |net: NetId| match c.net(net).driver() {
        Driver::Const(v) => Some(v),
        _ => None,
    };
    let ins = g.inputs();
    let other = |p: usize| const_val(ins[1 - p]);
    match g.kind() {
        GateKind::Buf | GateKind::Not => true,
        GateKind::And2 | GateKind::Nand2 => other(usize::from(pin)) == Some(true),
        GateKind::Or2 | GateKind::Nor2 => other(usize::from(pin)) == Some(false),
        GateKind::Xor2 | GateKind::Xnor2 => other(usize::from(pin)).is_some(),
        // Mux2 pins are [s, a, b] with out = if s { b } else { a }.
        GateKind::Mux2 => match pin {
            0 => matches!(
                (const_val(ins[1]), const_val(ins[2])),
                (Some(a), Some(b)) if a != b
            ),
            1 => const_val(ins[0]) == Some(false),
            2 => const_val(ins[0]) == Some(true),
            _ => false,
        },
    }
}

/// Per net: whether it directly feeds a primary-output bit.
fn output_net_table(c: &Circuit, topo: &Topology) -> Vec<bool> {
    let mut out = vec![false; c.num_nets()];
    for (i, net) in out.iter_mut().enumerate() {
        *net = topo
            .fanouts(NetId::from_index(i))
            .iter()
            .any(|e| matches!(e.consumer, Consumer::OutputBit { .. }));
    }
    out
}

/// Per flip-flop: whether a flip can ever reach a primary output — the
/// transitive closure of "my Q cone touches an output net or the D pin of
/// an influencing flip-flop" over the sequential dependence graph.
///
/// Computed as one reverse reachability pass over nets, seeded with every
/// output net: a gate output's inputs reach whatever it reaches, and a
/// flip-flop's D net reaches whatever its Q net reaches one cycle later.
/// Each net is visited once, so the cost is linear in nets plus edges.
fn influence_closure(c: &Circuit, output_net: &[bool]) -> Vec<bool> {
    let mut seen = output_net.to_vec();
    let mut stack: Vec<NetId> = (0..c.num_nets())
        .map(NetId::from_index)
        .filter(|n| seen[n.index()])
        .collect();
    while let Some(net) = stack.pop() {
        let mut visit = |n: NetId| {
            if !seen[n.index()] {
                seen[n.index()] = true;
                stack.push(n);
            }
        };
        match c.net(net).driver() {
            Driver::Gate(g) => c.gate(g).inputs().iter().copied().for_each(&mut visit),
            Driver::Dff(d) => visit(c.dff(d).d()),
            Driver::Input(_) | Driver::Const(_) => {}
        }
    }
    c.dffs().map(|(_, dff)| seen[dff.q().index()]).collect()
}

/// One cycle of the semi-formal masking check: exact zero-delay
/// propagation of a state difference through the combinational logic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DischargeStep {
    /// Flip-flops latching a wrong value at the next boundary, sorted.
    pub next_flips: Vec<DffId>,
    /// Whether any primary-output bit deviates from the golden run during
    /// this cycle.
    pub output_deviation: bool,
}

/// Propagates the state difference `flips` (relative to the golden run)
/// through one cycle of zero-delay combinational evaluation.
///
/// `golden` holds the fully settled golden net values of the cycle as bit
/// `bit` of one word per net — the layout of
/// [`delayavf_sim::GoldenTrace::golden_block`], whose bit `t % 64` is cycle
/// `t`. Because values are boolean, a faulty net's value is always the
/// complement of the golden one, so the difference is represented as the
/// *set* of deviating nets; gates are re-evaluated at most once each, in
/// level order, restricted to the fan-out cone of the deviation. The
/// result is exact — identical to diffing two full settles — as long as
/// the cone stays under `cap` nets; larger cones return `None` and the
/// caller falls back to a real replay.
pub fn propagate_flips(
    c: &Circuit,
    topo: &Topology,
    plan: &CollapsePlan,
    golden: &[u64],
    bit: u64,
    flips: &[DffId],
    cap: usize,
) -> Option<DischargeStep> {
    let golden_value = |net: NetId| (golden[net.index()] >> bit) & 1 == 1;
    let mut overlay: HashSet<NetId> = HashSet::new();
    let mut output_deviation = false;
    let mut heap: BinaryHeap<Reverse<(u32, GateId)>> = BinaryHeap::new();
    let mut queued: HashSet<GateId> = HashSet::new();
    let mut deviate = |net: NetId,
                       overlay: &mut HashSet<NetId>,
                       heap: &mut BinaryHeap<Reverse<(u32, GateId)>>,
                       queued: &mut HashSet<GateId>| {
        if !overlay.insert(net) {
            return;
        }
        output_deviation |= plan.is_output_net(net);
        for e in topo.fanouts(net) {
            if let Consumer::GatePin { gate, .. } = e.consumer {
                if queued.insert(gate) {
                    heap.push(Reverse((topo.gate_level(gate), gate)));
                }
            }
        }
    };
    for &d in flips {
        deviate(c.dff(d).q(), &mut overlay, &mut heap, &mut queued);
    }
    // Level order guarantees every gate sees its final fan-in deviation
    // before it is evaluated, so one evaluation per gate is exact.
    while let Some(Reverse((_, gate))) = heap.pop() {
        if overlay.len() > cap {
            return None;
        }
        let g = c.gate(gate);
        let ins = g.inputs();
        let mut vals = [false; 3];
        for (slot, &net) in vals.iter_mut().zip(ins) {
            *slot = golden_value(net) ^ overlay.contains(&net);
        }
        let faulty = g.kind().eval(&vals[..ins.len()]);
        if faulty != golden_value(g.output()) {
            deviate(g.output(), &mut overlay, &mut heap, &mut queued);
        }
    }
    let next_flips: Vec<DffId> = c
        .dffs()
        .filter(|(_, dff)| overlay.contains(&dff.d()))
        .map(|(d, _)| d)
        .collect();
    Some(DischargeStep {
        next_flips,
        output_deviation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_sim::settle;
    use delayavf_timing::TechLibrary;

    /// Packs a scalar settle into golden-block words at bit 5, with every
    /// other bit the complement (so a read of the wrong bit shows up).
    fn one_lane_block(values: &[bool]) -> Vec<u64> {
        values
            .iter()
            .map(|&v| if v { 1 << 5 } else { !(1 << 5) })
            .collect()
    }

    fn analyzed(c: &Circuit) -> (Topology, TimingModel) {
        let topo = Topology::new(c);
        let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
        (topo, timing)
    }

    #[test]
    fn buffer_chains_collapse_to_the_final_edge() {
        // in -> BUF -> BUF -> NOT -> DFF: the input edge of each unary gate
        // chains onto its output's sole fanout, all the way to the D pin.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let r = b.reg("r", false);
        let b1 = b.gate(GateKind::Buf, &[a]);
        let b2 = b.gate(GateKind::Buf, &[b1]);
        let n1 = b.not(b2);
        b.drive(r, n1);
        b.output("q", r.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        // Find the chain head (a -> BUF pin) and tail (n1 -> DFF D).
        let head = topo.fanout_ids(a).next().unwrap();
        let tail = (0..topo.edges().len())
            .map(EdgeId::from_index)
            .find(|&e| matches!(topo.edge(e).consumer, Consumer::DffD(_)))
            .unwrap();
        assert_eq!(plan.representative(head), tail);
        assert!(plan.is_representative(tail));
        assert!(!plan.is_representative(head));
        assert_eq!(plan.representative(tail), tail);
        assert_eq!(plan.num_members(), 3, "three chained member edges");
    }

    #[test]
    fn fanout_breaks_a_chain() {
        // The buffer output feeds two sinks, so its input edge must stay a
        // singleton class: a delay on it affects both sinks, a delay on
        // either downstream edge only one.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let r1 = b.reg("r1", false);
        let r2 = b.reg("r2", false);
        let x = b.gate(GateKind::Buf, &[a]);
        b.drive(r1, x);
        b.drive(r2, x);
        b.output("q", r1.q());
        b.output("p", r2.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        let head = topo.fanout_ids(a).next().unwrap();
        assert_eq!(plan.representative(head), head);
        assert_eq!(plan.num_members(), 0);
    }

    #[test]
    fn binary_gates_collapse_only_with_transparent_constants() {
        // AND with a constant-true side input is transparent; AND of two
        // live nets is not.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.input("x");
        let r1 = b.reg("r1", false);
        let r2 = b.reg("r2", false);
        let one = b.const_bit(true);
        let transparent = b.and(a, one);
        let opaque = b.and(a, x);
        b.drive(r1, transparent);
        b.drive(r2, opaque);
        b.output("q", r1.q());
        b.output("p", r2.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        let edges: Vec<EdgeId> = topo.fanout_ids(a).collect();
        let to_transparent = edges
            .iter()
            .copied()
            .find(|&e| {
                matches!(topo.edge(e).consumer, Consumer::GatePin { gate, .. }
                    if c.gate(gate).output() == transparent)
            })
            .unwrap();
        let to_opaque = edges
            .iter()
            .copied()
            .find(|&e| {
                matches!(topo.edge(e).consumer, Consumer::GatePin { gate, .. }
                    if c.gate(gate).output() == opaque)
            })
            .unwrap();
        assert_ne!(plan.representative(to_transparent), to_transparent);
        assert_eq!(plan.representative(to_opaque), to_opaque);
        // The constant pin itself never joins a class.
        let const_edge = topo.fanout_ids(one).next().unwrap();
        assert_eq!(plan.representative(const_edge), const_edge);
    }

    #[test]
    fn influence_closure_sees_through_state_chains() {
        // r1 -> r2 -> output: r1 influences the output only transitively;
        // r3 is a sink nobody reads.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let r1 = b.reg("r1", false);
        let r2 = b.reg("r2", false);
        let r3 = b.reg("r3", false);
        b.drive(r1, a);
        b.drive(r2, r1.q());
        b.drive(r3, r2.q());
        b.output("o", r2.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        let by_name = |name: &str| c.dffs().find(|(_, d)| d.name() == name).unwrap().0;
        assert!(plan.influences_output(by_name("r1")));
        assert!(plan.influences_output(by_name("r2")));
        assert!(!plan.influences_output(by_name("r3")));
    }

    #[test]
    fn propagation_matches_a_full_diff_settle() {
        // Random-ish adder circuit: flipping accumulator bits and
        // propagating must reproduce exactly the diff of two settles.
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 4);
        let acc = b.reg_word("acc", 4, 0);
        let next = b.add(&acc.q(), &step);
        b.drive_word(&acc, &next);
        b.output_word("acc", &acc.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        let state: Vec<bool> = vec![true, false, true, false];
        let inputs = vec![0b0011u64];
        let golden = settle(&c, &topo, &state, &inputs);
        let block = one_lane_block(&golden);
        for flip_mask in 1u32..16 {
            let flips: Vec<DffId> = (0..4)
                .filter(|i| flip_mask & (1 << i) != 0)
                .map(DffId::from_index)
                .collect();
            let mut faulty_state = state.clone();
            for d in &flips {
                faulty_state[d.index()] = !faulty_state[d.index()];
            }
            let faulty = settle(&c, &topo, &faulty_state, &inputs);
            let step = propagate_flips(&c, &topo, &plan, &block, 5, &flips, 4096).unwrap();
            let expect_next: Vec<DffId> = c
                .dffs()
                .filter(|(_, dff)| faulty[dff.d().index()] != golden[dff.d().index()])
                .map(|(d, _)| d)
                .collect();
            assert_eq!(step.next_flips, expect_next, "flips {flips:?}");
            let expect_dev = c.output_ports().iter().any(|p| {
                p.nets()
                    .iter()
                    .any(|&n| faulty[n.index()] != golden[n.index()])
            });
            assert_eq!(step.output_deviation, expect_dev, "flips {flips:?}");
        }
    }

    #[test]
    fn cone_cap_gives_up_instead_of_truncating() {
        let mut b = CircuitBuilder::new();
        let step = b.input_word("step", 8);
        let acc = b.reg_word("acc", 8, 0);
        let next = b.add(&acc.q(), &step);
        b.drive_word(&acc, &next);
        b.output_word("acc", &acc.q());
        let c = b.finish().unwrap();
        let (topo, timing) = analyzed(&c);
        let plan = CollapsePlan::build(&c, &topo, &timing);
        let state = vec![true; 8];
        let inputs = vec![0xFFu64];
        let block = one_lane_block(&settle(&c, &topo, &state, &inputs));
        let flips: Vec<DffId> = (0..8).map(DffId::from_index).collect();
        assert!(propagate_flips(&c, &topo, &plan, &block, 5, &flips, 1).is_none());
    }
}
