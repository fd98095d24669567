//! Property tests for the [`EvalPlan`] dense kernel on random circuits:
//!
//! 1. [`EvalPlan::settle`] computes what per-gate [`GateKind::eval`] in
//!    topological order computes, for `bool` and for every lane of `u64`,
//!    [`W256`] and [`W512`] words;
//! 2. the plan's shape: the kind runs tile `0..len()`, each run has one
//!    kind and stays inside one level, `op_of_gate` inverts plan order,
//!    and every op reads only source nets or outputs of lower levels.

use delayavf_netlist::{Circuit, Driver, EvalPlan, GateKind, NetId, Topology};
use delayavf_sim::testutil::{random_circuit, GateSpec};
use delayavf_sim::{LaneWord, W256, W512};
use proptest::prelude::*;

/// A small xorshift stream: the proptest seed fans out into many bits.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Settles one lane the reference way: every gate in `eval_order`, each
/// evaluated with [`GateKind::eval`] on its input values.
fn gate_walk(c: &Circuit, topo: &Topology, vals: &mut [bool]) {
    for &g in topo.eval_order() {
        let gate = c.gate(g);
        let ins: Vec<bool> = gate.inputs().iter().map(|n| vals[n.index()]).collect();
        vals[gate.output().index()] = gate.kind().eval(&ins);
    }
}

/// Random values on every net, constants at their values; gate outputs
/// are overwritten by either settle.
fn random_bools(c: &Circuit, topo: &Topology, seed: &mut u64) -> Vec<bool> {
    let mut vals: Vec<bool> = (0..c.num_nets()).map(|_| next(seed) & 1 == 1).collect();
    topo.seed_consts(&mut vals);
    vals
}

/// Settles random lane words with the kernel and checks every lane against
/// the per-gate walk over that lane's bits.
fn check_lanes<W: LaneWord>(
    c: &Circuit,
    topo: &Topology,
    seed: &mut u64,
) -> Result<(), TestCaseError> {
    let lanes: Vec<Vec<bool>> = (0..W::LANES).map(|_| random_bools(c, topo, seed)).collect();
    let mut words = vec![W::ZERO; c.num_nets()];
    for (lane, vals) in lanes.iter().enumerate() {
        for (w, &v) in words.iter_mut().zip(vals) {
            if v {
                *w = *w | W::lane_mask(lane);
            }
        }
    }
    topo.plan().settle(&mut words);
    for (lane, vals) in lanes.iter().enumerate() {
        let mut want = vals.clone();
        gate_walk(c, topo, &mut want);
        let got: Vec<bool> = words.iter().map(|w| w.get(lane)).collect();
        prop_assert_eq!(got, want, "lane {} of {}", lane, W::LANES);
    }
    Ok(())
}

/// The level of an op index.
fn level_of(plan: &EvalPlan, op: u32) -> usize {
    plan.level_offsets().partition_point(|&o| o <= op) - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn settle_equals_per_gate_eval(
        gates in prop::collection::vec(any::<GateSpec>(), 1..80),
        seed: u64,
    ) {
        let c = random_circuit(5, 5, &gates);
        let topo = Topology::new(&c);
        let mut seed = seed | 1;
        for _ in 0..8 {
            let vals = random_bools(&c, &topo, &mut seed);
            let mut want = vals.clone();
            gate_walk(&c, &topo, &mut want);
            let mut got = vals;
            topo.plan().settle(&mut got);
            prop_assert_eq!(got, want, "bool settle");
        }
        check_lanes::<u64>(&c, &topo, &mut seed)?;
        check_lanes::<W256>(&c, &topo, &mut seed)?;
        check_lanes::<W512>(&c, &topo, &mut seed)?;
    }

    #[test]
    fn plan_runs_tile_levels_and_read_only_lower_levels(
        gates in prop::collection::vec(any::<GateSpec>(), 0..120),
    ) {
        let c = random_circuit(5, 5, &gates);
        let topo = Topology::new(&c);
        let plan = topo.plan();
        let offs = plan.level_offsets();
        prop_assert_eq!(plan.len(), c.num_gates());
        prop_assert_eq!(offs.len(), topo.num_levels() + 1);
        // The runs tile 0..len, each within one level, one kind each, and
        // a level's runs appear in strictly increasing kind order (so no
        // two runs of one level share a kind).
        let mut at = 0;
        let mut prev: Option<(usize, GateKind)> = None;
        for &(kind, start, end) in plan.runs() {
            prop_assert_eq!(start, at, "runs are contiguous");
            prop_assert!(start < end, "runs are non-empty");
            let level = level_of(plan, start);
            prop_assert!(end <= offs[level + 1], "run {}..{} crosses a level boundary", start, end);
            for op in start..end {
                prop_assert_eq!(plan.op(op).0, kind, "op {} in a {} run", op, kind);
            }
            if let Some((l, k)) = prev {
                prop_assert!(l < level || k < kind, "kind order inside level {}", level);
            }
            prev = Some((level, kind));
            at = end;
        }
        prop_assert_eq!(at as usize, plan.len(), "runs cover every op");
        // op_of_gate inverts plan order: a bijection onto 0..len that
        // lands each gate on an op with its own kind, pins and output.
        let mut seen = vec![false; plan.len()];
        for (g, gate) in c.gates() {
            let op = plan.op_of_gate(g);
            prop_assert!(!std::mem::replace(&mut seen[op as usize], true), "op {} taken twice", op);
            let (kind, ins, out) = plan.op(op);
            prop_assert_eq!(kind, gate.kind());
            prop_assert_eq!(out as usize, gate.output().index());
            for (pin, &net) in gate.inputs().iter().enumerate() {
                prop_assert_eq!(ins[pin] as usize, net.index());
            }
            prop_assert_eq!(level_of(plan, op), topo.gate_level(g) as usize);
        }
        // Every op reads source nets or outputs of strictly lower levels.
        for op in 0..plan.len() as u32 {
            let (kind, ins, _) = plan.op(op);
            let level = level_of(plan, op);
            for &src in &ins[..kind.arity()] {
                if let Driver::Gate(d) = c.net(NetId::from_index(src as usize)).driver() {
                    let from = level_of(plan, plan.op_of_gate(d));
                    prop_assert!(from < level, "op {} (level {}) reads level {}", op, level, from);
                }
            }
        }
    }
}
