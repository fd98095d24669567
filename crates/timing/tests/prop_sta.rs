//! Property tests for static timing analysis on random DAG circuits.

use delayavf_netlist::{
    Circuit, CircuitBuilder, Consumer, DffId, EdgeId, GateKind, NetId, Topology, Word,
};
use delayavf_timing::{Picos, TechLibrary, TimingModel};
use proptest::prelude::*;

type GateSpec = (u8, u16, u16, u16);

fn random_fixture(gates: &[GateSpec]) -> (delayavf_netlist::Circuit, Topology, TimingModel) {
    let mut b = CircuitBuilder::new();
    let inputs = b.input_word("in", 6);
    let regs = b.reg_word("r", 6, 0);
    let mut nets: Vec<NetId> = inputs.bits().to_vec();
    nets.extend_from_slice(regs.q().bits());
    for &(kind, i0, i1, i2) in gates {
        let kinds = [
            GateKind::Buf,
            GateKind::Not,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Nand2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Xnor2,
            GateKind::Mux2,
        ];
        let k = kinds[usize::from(kind) % kinds.len()];
        let pick = |sel: u16| nets[usize::from(sel) % nets.len()];
        let ins: Vec<NetId> = [i0, i1, i2][..k.arity()].iter().map(|&s| pick(s)).collect();
        nets.push(b.gate(k, &ins));
    }
    let d: Word = (0..6).map(|i| nets[nets.len() - 1 - i]).collect();
    b.drive_word(&regs, &d);
    b.output_word("o", &regs.q());
    let c = b.finish().expect("acyclic");
    let topo = Topology::new(&c);
    let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
    (c, topo, timing)
}

/// Test-side oracle for one edge's slack entries: a longest-path
/// relaxation from the edge's pin time over its sink's fan-out cone, in
/// evaluation order, sorted by `(path, dff)`.
fn expand_edge(c: &Circuit, topo: &Topology, tm: &TimingModel, e: EdgeId) -> Vec<(Picos, DffId)> {
    let edge = topo.edge(e);
    let pin = tm.arrival(edge.source) + tm.net_delay(edge.source);
    // Latest time at each net origin and at each D pin (setup included).
    let mut at: Vec<Option<Picos>> = vec![None; c.num_nets()];
    let mut dff: Vec<Option<Picos>> = vec![None; c.num_dffs()];
    let mut reach = |consumer: Consumer, t: Picos, at: &mut Vec<Option<Picos>>| match consumer {
        Consumer::GatePin { gate, .. } => {
            let slot = &mut at[c.gate(gate).output().index()];
            *slot = Some(slot.map_or(t, |s| s.max(t)));
        }
        Consumer::DffD(f) => {
            let slot = &mut dff[f.index()];
            *slot = Some(slot.map_or(t + tm.setup(), |s| s.max(t + tm.setup())));
        }
        Consumer::OutputBit { .. } => {}
    };
    reach(edge.consumer, pin, &mut at);
    for &g in topo.eval_order() {
        let out = c.gate(g).output();
        if let Some(t) = at[out.index()] {
            for fo in topo.fanouts(out) {
                reach(fo.consumer, t + tm.net_delay(out), &mut at);
            }
        }
    }
    let mut v: Vec<(Picos, DffId)> = dff
        .iter()
        .enumerate()
        .filter_map(|(i, t)| t.map(|t| (t, DffId::from_index(i))))
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_path_fits_the_self_derived_clock(
        gates in prop::collection::vec(any::<GateSpec>(), 5..50),
    ) {
        let (c, topo, timing) = random_fixture(&gates);
        for i in 0..topo.edges().len() {
            let e = EdgeId::from_index(i);
            prop_assert!(
                timing.path_through_edge(&c, &topo, e) <= timing.clock_period(),
                "edge {e} exceeds the critical-path clock"
            );
        }
        // The critical path is actually achieved by some edge.
        let max = (0..topo.edges().len())
            .map(|i| timing.path_through_edge(&c, &topo, EdgeId::from_index(i)))
            .max()
            .unwrap();
        prop_assert_eq!(max, timing.clock_period());
    }

    #[test]
    fn static_reach_is_monotone_in_delay(
        gates in prop::collection::vec(any::<GateSpec>(), 5..40),
        edge_sel: u16,
    ) {
        let (c, topo, timing) = random_fixture(&gates);
        let e = EdgeId::from_index(usize::from(edge_sel) % topo.edges().len());
        let clock = timing.clock_period();
        let mut prev: Vec<_> = Vec::new();
        for frac in [0u64, 1, 2, 4, 8] {
            let d = clock * frac / 8;
            let cur = timing.statically_reachable(&c, &topo, e, d);
            // Monotonicity: a longer delay can only add reachable elements.
            prop_assert!(
                prev.iter().all(|x| cur.contains(x)),
                "reach shrank between delays"
            );
            prev = cur;
        }
    }

    #[test]
    fn zero_delay_reaches_nothing(
        gates in prop::collection::vec(any::<GateSpec>(), 5..40),
        edge_sel: u16,
    ) {
        let (c, topo, timing) = random_fixture(&gates);
        let e = EdgeId::from_index(usize::from(edge_sel) % topo.edges().len());
        prop_assert!(timing.statically_reachable(&c, &topo, e, 0).is_empty());
    }

    #[test]
    fn walk_oracle_matches_the_csr_table_everywhere(
        gates in prop::collection::vec(any::<GateSpec>(), 5..40),
        extra_sel: u16,
    ) {
        // Direct differential test of the two statically-reachable
        // implementations on every edge, probing the decision boundaries:
        // the exact per-edge slack (zero-slack extras: slack and slack ± 1),
        // the guardband edge (same probes against a stretched clock), and
        // the saturation regime (extras near Picos::MAX, where the walk
        // used to overflow while the table saturated).
        let (c, topo, timing) = random_fixture(&gates);
        let clock = timing.clock_period();
        let relaxed = timing.with_guardband(25.0);
        for i in 0..topo.edges().len() {
            let e = EdgeId::from_index(i);
            for tm in [&timing, &relaxed] {
                let slack = tm.clock_period() - timing.path_through_edge(&c, &topo, e);
                let mut extras = vec![
                    0,
                    slack.saturating_sub(1),
                    slack,
                    slack + 1,
                    tm.clock_period(),
                    tm.clock_period() + 1,
                    u64::MAX - 1,
                    u64::MAX,
                ];
                extras.push(u64::from(extra_sel) * clock / 4096);
                for extra in extras {
                    let walk = tm.statically_reachable_walk(&c, &topo, e, extra);
                    prop_assert_eq!(
                        tm.statically_reachable(&c, &topo, e, extra),
                        walk.clone(),
                        "edge {} extra {} clock {}", e, extra, tm.clock_period()
                    );
                    prop_assert_eq!(
                        tm.statically_reachable_count(&c, &topo, e, extra),
                        walk.len(),
                        "count: edge {} extra {} clock {}", e, extra, tm.clock_period()
                    );
                }
            }
        }
    }

    #[test]
    fn every_edge_view_matches_a_per_edge_expansion(
        gates in prop::collection::vec(any::<GateSpec>(), 5..40),
    ) {
        let (c, topo, timing) = random_fixture(&gates);
        for i in 0..topo.edges().len() {
            let e = EdgeId::from_index(i);
            let view = timing.edge_slack_entries(&c, &topo, e);
            let expect = expand_edge(&c, &topo, &timing, e);
            prop_assert_eq!(view.len(), expect.len(), "edge {}", e);
            prop_assert_eq!(view.iter().collect::<Vec<_>>(), expect.clone(), "edge {}", e);
            prop_assert_eq!(view.longest(), expect.last().map(|&(p, _)| p), "edge {}", e);
        }
    }

    #[test]
    fn above_clock_delay_reaches_every_downstream_dff(
        gates in prop::collection::vec(any::<GateSpec>(), 5..40),
        edge_sel: u16,
    ) {
        let (c, topo, timing) = random_fixture(&gates);
        let e = EdgeId::from_index(usize::from(edge_sel) % topo.edges().len());
        let reach = timing.statically_reachable(&c, &topo, e, timing.clock_period() + 1);
        // With d > clock, every DFF topologically downstream of the edge's
        // sink is statically reachable.
        let edge = topo.edge(e);
        let expect = match edge.consumer {
            Consumer::DffD(f) => vec![f],
            Consumer::GatePin { gate, .. } => {
                topo.downstream_dffs(&c, c.gate(gate).output())
                    .into_iter()
                    .chain(std::iter::empty())
                    .collect()
            }
            Consumer::OutputBit { .. } => vec![],
        };
        let mut expect = expect;
        // A gate-pin fault also reaches DFFs fed directly by that gate's
        // output; downstream_dffs already covers those. For a DffD fault
        // only that DFF is affected.
        expect.sort_unstable();
        prop_assert_eq!(reach, expect);
    }
}
