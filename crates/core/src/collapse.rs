//! Pre-simulation fault collapsing: equivalence classes over injection
//! sites.
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
//! The plan serves step 1 only: every flip group, however it arose, is
//! classified by a replay.

use delayavf_netlist::{Circuit, Consumer, Driver, EdgeId, GateId, GateKind, NetId, Topology};
use delayavf_timing::TimingModel;

/// The precomputed fault-collapsing partition of a circuit's edges. Built
/// once per [`crate::Injector`], on its first step-1 query; depends solely
/// on the circuit, topology and timing model, never on the golden trace —
/// so every worker derives the identical plan. Apart from the timing
/// model's shared slack table, which it reads, the build is linear in the
/// circuit: one pass over the edges.
pub struct CollapsePlan {
    /// Per edge: the representative of its equivalence class (itself for
    /// singleton classes). Chains are path-compressed, so a member points
    /// directly at the final edge of its chain.
    rep: Vec<EdgeId>,
    /// Per edge: true when at least one *other* edge collapses onto it.
    is_rep: Vec<bool>,
    /// Number of edges with a representative other than themselves.
    num_members: usize,
}

impl CollapsePlan {
    /// Builds the plan: chain-collapses edges under the same-slack +
    /// structural-dominator criterion.
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
        CollapsePlan {
            rep,
            is_rep,
            num_members,
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

#[cfg(test)]
mod tests {
    use super::*;
    use delayavf_netlist::CircuitBuilder;
    use delayavf_timing::TechLibrary;

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
}
