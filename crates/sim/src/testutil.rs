//! Shared generators for the property/fuzz suites: seeded random netlists
//! (with constant nets and forced fan-out reconvergence), random input
//! traces, flip-set selection, and [`ReferenceWave`], the heap-driven
//! golden-waveform event loop the levelized [`GoldenWave`] build is checked
//! against. Used by the `prop_*` integration tests; not part of the
//! simulator API proper.
//!
//! Everything here is a *pure function of its arguments* — the proptest
//! harness owns the randomness, so a failing case is reproducible from its
//! printed inputs alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use delayavf_netlist::{Circuit, CircuitBuilder, Consumer, DffId, GateKind, NetId, Topology, Word};
use delayavf_timing::{Picos, TimingModel};

use crate::cycle::write_input_nets;
use crate::delta::push_tx;
use crate::{Environment, GoldenWave};

/// Specification of one random gate: kind/shape selector plus three input
/// selectors (reduced modulo the current net pool).
///
/// The high bit of the kind selector forces a *reconvergent* gate — both
/// primary inputs read the same net — so every generated circuit family
/// exercises fan-out reconvergence, the classic trap for incremental and
/// event-driven engines (a glitch that cancels where the paths re-join).
pub type GateSpec = (u8, u16, u16, u16);

/// Builds a random acyclic circuit from a gate list.
///
/// The net pool seeds with the primary-input bits, the register outputs and
/// both **constant nets** (`const0`/`const1`), so random gates freely mix
/// toggling and constant cones; each gate's output joins the pool. The
/// registers latch the most recently created nets (falling back to pool
/// seeds for very short gate lists, which yields constant-driven state
/// bits), and the register outputs are the primary outputs.
pub fn random_circuit(n_inputs: usize, n_regs: usize, gates: &[GateSpec]) -> Circuit {
    build_random(n_inputs, n_regs, gates, None)
}

/// Like [`random_circuit`], but the primary outputs are the pool nets that
/// `outputs` selects (reduced modulo the final pool, so inputs, constants,
/// register outputs and gate outputs are all candidates) instead of every
/// register output. Some registers then reach an output only through other
/// registers, across cycles of the register feedback loop, and some never
/// do — the distinction the collapse layer's influence closure draws.
pub fn random_observed_circuit(
    n_inputs: usize,
    n_regs: usize,
    gates: &[GateSpec],
    outputs: &[u16],
) -> Circuit {
    build_random(n_inputs, n_regs, gates, Some(outputs))
}

fn build_random(
    n_inputs: usize,
    n_regs: usize,
    gates: &[GateSpec],
    outputs: Option<&[u16]>,
) -> Circuit {
    let mut b = CircuitBuilder::new();
    let inputs = b.input_word("in", n_inputs);
    let regs = b.reg_word("r", n_regs, 0);
    let mut nets: Vec<NetId> = inputs.bits().to_vec();
    nets.extend_from_slice(regs.q().bits());
    nets.push(b.const0());
    nets.push(b.const1());
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
        let reconverge = kind >= 0x80 && k.arity() >= 2;
        let sels = if reconverge {
            [i0, i0, i1]
        } else {
            [i0, i1, i2]
        };
        let ins: Vec<NetId> = sels[..k.arity()].iter().map(|&s| pick(s)).collect();
        nets.push(b.gate(k, &ins));
    }
    // Feed registers from the most recently created nets.
    let d: Word = (0..n_regs).map(|i| nets[nets.len() - 1 - i]).collect();
    b.drive_word(&regs, &d);
    match outputs {
        Some(sels) => {
            let o: Word = sels
                .iter()
                .map(|&s| nets[usize::from(s) % nets.len()])
                .collect();
            b.output_word("o", &o);
        }
        None => b.output_word("o", &regs.q()),
    }
    b.finish().expect("acyclic by construction")
}

/// Flips selected by a mask bit per register; `mask == 0` yields the empty
/// set (a scenario that rides along on the golden trajectory).
pub fn pick_flips(c: &Circuit, mask: u8) -> Vec<DffId> {
    c.dffs()
        .enumerate()
        .filter(|(i, _)| (mask >> (i % 8)) & 1 == 1)
        .map(|(_, (id, _))| id)
        .collect()
}

/// Like [`pick_flips`], but a zero mask is promoted to one flip, for
/// properties that need a non-empty divergence seed.
pub fn pick_flips_nonempty(c: &Circuit, mask: u8) -> Vec<DffId> {
    pick_flips(c, if mask == 0 { 1 } else { mask })
}

/// A random-trace environment: plays a fixed list of per-cycle input rows
/// cyclically, one `u64` per input port. The inputs depend only on the
/// cycle number (never on outputs), so recorded traces satisfy the closed
/// environment the batch replay engine assumes, while still toggling the
/// input cone every cycle — unlike [`crate::ConstEnvironment`].
#[derive(Clone, Debug, Default)]
pub struct SeqEnvironment {
    rows: Vec<Vec<u64>>,
}

impl SeqEnvironment {
    /// An environment cycling through `rows` (each row: one value per input
    /// port; missing trailing ports read zero). An empty `rows` drives all
    /// ports to zero forever.
    pub fn new(rows: Vec<Vec<u64>>) -> Self {
        SeqEnvironment { rows }
    }
}

impl Environment for SeqEnvironment {
    fn step(&mut self, cycle: u64, _prev_outputs: &[u64], inputs: &mut [u64]) {
        if self.rows.is_empty() {
            return;
        }
        let row = &self.rows[cycle as usize % self.rows.len()];
        for (slot, &v) in inputs.iter_mut().zip(row) {
            *slot = v;
        }
    }
}

/// The fault-free timed waveform of one cycle as a heap-driven event loop
/// computes it: one heap entry per fanout edge per transition, popped in
/// (time, push order), each pin event re-evaluating its gate and every
/// output change recorded with [`GoldenWave`]'s canonical-list rule — the
/// loop [`EventSim`](crate::EventSim) runs with no fault.
///
/// The levelized [`GoldenWave`] build must produce exactly these lists,
/// base values and latched values; `crates/sim/tests/prop_golden_wave.rs`
/// compares them with [`ReferenceWave::mismatch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReferenceWave {
    /// Settled net values at the clock edge.
    pub base: Vec<bool>,
    /// Canonical transition list of every net.
    pub tx: Vec<Vec<(Picos, bool)>>,
    /// Latched value of every flip-flop.
    pub latch: Vec<bool>,
}

impl ReferenceWave {
    /// Runs the event loop on one cycle: `prev_values` are the previous
    /// cycle's settled net values, `new_state` this cycle's flip-flop
    /// values and `new_inputs` its input port words, as for
    /// [`GoldenWave::ensure`].
    pub fn simulate(
        circuit: &Circuit,
        topo: &Topology,
        timing: &TimingModel,
        prev_values: &[bool],
        new_state: &[bool],
        new_inputs: &[u64],
    ) -> Self {
        let deadline = timing.clock_period().saturating_sub(timing.setup());
        let mut tx = vec![Vec::new(); circuit.num_nets()];
        let mut net_val = prev_values.to_vec();
        let mut pin_val: Vec<bool> = topo
            .edges()
            .iter()
            .map(|e| prev_values[e.source.index()])
            .collect();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut schedule = |heap: &mut BinaryHeap<_>, net: NetId, t: Picos, v: bool| {
            for eid in topo.fanout_ids(net) {
                seq += 1;
                heap.push(Reverse((t + timing.net_delay(net), seq, eid.index(), v)));
            }
        };
        // t = 0: the clock edge updates flip-flop outputs and the
        // environment presents new inputs.
        let mut changes: Vec<(NetId, bool)> = circuit
            .dffs()
            .map(|(id, dff)| (dff.q(), new_state[id.index()]))
            .collect();
        let mut input_bits = prev_values.to_vec();
        write_input_nets(circuit, new_inputs, &mut input_bits);
        changes.extend(
            circuit
                .input_nets()
                .iter()
                .map(|&n| (n, input_bits[n.index()])),
        );
        for (net, v) in changes {
            if net_val[net.index()] != v {
                net_val[net.index()] = v;
                push_tx(&mut tx[net.index()], prev_values[net.index()], 0, v);
                schedule(&mut heap, net, 0, v);
            }
        }
        while let Some(Reverse((t, _, idx, v))) = heap.pop() {
            if t > deadline {
                break;
            }
            if pin_val[idx] == v {
                continue;
            }
            pin_val[idx] = v;
            if let Consumer::GatePin { gate, .. } = topo.edges()[idx].consumer {
                let g = circuit.gate(gate);
                let mut ins = [false; 3];
                for (slot, e) in ins.iter_mut().zip(topo.gate_in_edges(gate)) {
                    *slot = pin_val[e.index()];
                }
                let out = g.kind().eval(&ins[..g.kind().arity()]);
                let o = g.output();
                if net_val[o.index()] != out {
                    net_val[o.index()] = out;
                    push_tx(&mut tx[o.index()], prev_values[o.index()], t, out);
                    schedule(&mut heap, o, t, out);
                }
            }
        }
        let latch = circuit
            .dffs()
            .map(|(id, _)| pin_val[topo.dff_in_edge(id).index()])
            .collect();
        ReferenceWave {
            base: prev_values.to_vec(),
            tx,
            latch,
        }
    }

    /// Describes the first difference between this reference and the
    /// cycle `gold` holds — a net's transition list, a base value or a
    /// latched value — or `None` when they agree everywhere.
    pub fn mismatch(&self, gold: &GoldenWave<'_>) -> Option<String> {
        if let Some(n) = (0..self.tx.len()).find(|&n| gold.tx[n] != self.tx[n]) {
            return Some(format!(
                "net {n}: levelized {:?}, event loop {:?}",
                gold.tx[n], self.tx[n]
            ));
        }
        if gold.base != self.base {
            return Some("base values differ".to_owned());
        }
        (gold.latch != self.latch).then(|| {
            format!(
                "latched: levelized {:?}, event loop {:?}",
                gold.latch, self.latch
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CycleSim, GoldenTrace};
    use delayavf_netlist::Topology;

    #[test]
    fn random_circuits_include_constants_and_simulate() {
        let gates: Vec<GateSpec> = (0..20u16)
            .map(|i| (i as u8 * 13, i, i + 7, i + 3))
            .collect();
        let c = random_circuit(4, 4, &gates);
        assert_eq!(c.num_dffs(), 4);
        let topo = Topology::new(&c);
        let mut env = SeqEnvironment::new(vec![vec![0b1010], vec![0b0101]]);
        let trace = GoldenTrace::record(&c, &topo, &mut env, 6);
        assert_eq!(trace.num_cycles(), 6);
        let mut sim = CycleSim::new(&c, &topo);
        sim.restore(
            1,
            &trace.state_bits_at(1, c.num_dffs()),
            trace.outputs_at(0),
        );
        sim.step(&mut SeqEnvironment::new(vec![vec![0b1010], vec![0b0101]]));
        assert_eq!(sim.cycle(), 2);
    }

    #[test]
    fn reconvergent_specs_duplicate_an_input() {
        // kind 0x82 % 9 == And2 family with the reconvergence bit set; the
        // gate must still build and the circuit stay acyclic.
        let c = random_circuit(2, 2, &[(0x82, 0, 1, 2), (0x88, 3, 0, 1)]);
        assert!(c.num_gates() >= 2);
    }

    #[test]
    fn seq_environment_cycles_and_pads() {
        let mut env = SeqEnvironment::new(vec![vec![7], vec![9]]);
        let mut inputs = vec![0u64; 2];
        env.step(0, &[], &mut inputs);
        assert_eq!(inputs, vec![7, 0]);
        env.step(3, &[], &mut inputs);
        assert_eq!(inputs, vec![9, 0]);
        SeqEnvironment::new(Vec::new()).step(0, &[], &mut inputs);
        assert_eq!(inputs, vec![9, 0], "empty rows leave inputs untouched");
    }

    #[test]
    fn flip_pickers_respect_masks() {
        let c = random_circuit(2, 8, &[(0, 0, 0, 0)]);
        assert!(pick_flips(&c, 0).is_empty());
        assert_eq!(pick_flips(&c, 0b101).len(), 2);
        assert_eq!(pick_flips_nonempty(&c, 0).len(), 1);
    }
}
