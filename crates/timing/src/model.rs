//! Static timing analysis over a circuit.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

use delayavf_netlist::{Circuit, Consumer, DffId, Driver, EdgeId, NetId, Topology};

use crate::techlib::TechLibrary;
use crate::Picos;

/// Precomputed **downstream-slack table**, stored per *sink* rather than
/// per edge: for every gate, the longest continuation from the origin of
/// its output net to each downstream flip-flop's D pin (including the
/// output net's own edge delay and the endpoint setup time), as a CSR of
/// `(continuation, dff)` rows sorted by `(continuation, dff)`; plus one
/// single-entry row `(setup, dff)` per flip-flop D pin.
///
/// An edge's entries are its sink's row shifted by the edge's pin time
/// (`arrival + delay` of its source net), see [`EdgeSlack`]. Adding a
/// constant keeps the order, so no per-edge copy or sort is ever made: the
/// table holds one row per gate instead of one per edge, and edges into a
/// primary-output bit have no row at all (outputs are not state elements).
///
/// With the table in hand, the statically reachable set for `(edge, extra)`
/// is a binary search: a flip-flop `f` is reachable iff its longest path
/// through the edge plus `extra` exceeds the clock period, so the qualifying
/// entries form a suffix of the edge's sorted row. Path lengths are
/// **absolute** (not slack against a particular clock), so a guardbanded
/// clone of the model ([`TimingModel::with_guardband`], which stretches only
/// `clock_period`) reuses the same table and stays exact.
#[derive(Debug, Default)]
struct SlackTable {
    /// Per row (gates by [`delayavf_netlist::GateId`] index, then flip-flop
    /// D pins by [`DffId`] index): `entries[lo..hi]`.
    rows: Vec<(u32, u32)>,
    /// Row contents: `(continuation, dff)`, ascending.
    entries: Vec<(Picos, DffId)>,
}

impl SlackTable {
    /// Builds the table in one backward pass over the gates (consumers
    /// before producers). Each gate's row is the max-merge of its output's
    /// fanout sinks: a D pin contributes `setup`, a gate pin that gate's
    /// row, each lengthened by the output net's edge delay. The merge goes
    /// through a dense per-flip-flop scratch stamped with the gate's epoch,
    /// so the build is linear in the stored pairs plus their row sorts.
    fn build(tm: &TimingModel, c: &Circuit, topo: &Topology) -> Self {
        let num_gates = c.num_gates();
        let mut rows = vec![(0u32, 0u32); num_gates + c.num_dffs()];
        let mut entries: Vec<(Picos, DffId)> = Vec::new();
        let mut best = vec![0 as Picos; c.num_dffs()];
        let mut stamp = vec![0u32; c.num_dffs()];
        let mut touched: Vec<DffId> = Vec::new();
        let end = |len: usize| u32::try_from(len).expect("slack table fits u32");
        for (epoch, &g) in (1u32..).zip(topo.eval_order().iter().rev()) {
            let out = c.gate(g).output();
            let d = tm.net_delay[out.index()];
            touched.clear();
            let mut offer = |f: DffId, t: Picos| {
                let i = f.index();
                if stamp[i] != epoch {
                    stamp[i] = epoch;
                    best[i] = t;
                    touched.push(f);
                } else if t > best[i] {
                    best[i] = t;
                }
            };
            for e in topo.fanouts(out) {
                match e.consumer {
                    Consumer::DffD(f) => offer(f, d + tm.setup),
                    Consumer::GatePin { gate, .. } => {
                        let (lo, hi) = rows[gate.index()];
                        for &(cont, f) in &entries[lo as usize..hi as usize] {
                            offer(f, d + cont);
                        }
                    }
                    // Primary outputs are not state elements; they never
                    // enter the statically reachable set.
                    Consumer::OutputBit { .. } => {}
                }
            }
            let lo = entries.len();
            entries.extend(touched.iter().map(|&f| (best[f.index()], f)));
            entries[lo..].sort_unstable();
            rows[g.index()] = (end(lo), end(entries.len()));
        }
        for (f, _) in c.dffs() {
            let lo = entries.len();
            entries.push((tm.setup, f));
            rows[num_gates + f.index()] = (end(lo), end(entries.len()));
        }
        SlackTable { rows, entries }
    }

    /// The row of an edge's sink `consumer`, unshifted.
    #[inline]
    fn sink_row(&self, c: &Circuit, consumer: Consumer) -> &[(Picos, DffId)] {
        let row = match consumer {
            Consumer::GatePin { gate, .. } => gate.index(),
            Consumer::DffD(f) => c.num_gates() + f.index(),
            Consumer::OutputBit { .. } => return &[],
        };
        let (lo, hi) = self.rows[row];
        &self.entries[lo as usize..hi as usize]
    }
}

/// One edge's downstream-slack entries: `(path_length, dff)` for every
/// flip-flop reachable through the edge, where `path_length` is the longest
/// complete source-to-endpoint path through the edge ending at that
/// flip-flop, endpoint setup included. Entries ascend by path length (ties
/// by flip-flop id).
///
/// A view of the sink's row in the slack table shifted by the edge's pin
/// time, so it costs no allocation. Equality compares the shifted entries
/// pointwise: two edges with equal views reach the same flip-flops over
/// the same absolute path lengths, so they behave identically under
/// **every** extra delay and every guardband.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSlack<'a> {
    base: Picos,
    row: &'a [(Picos, DffId)],
}

impl<'a> EdgeSlack<'a> {
    /// Number of reachable flip-flops (whatever the extra delay).
    #[inline]
    pub fn len(&self) -> usize {
        self.row.len()
    }

    /// True when no flip-flop is reachable through the edge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.row.is_empty()
    }

    /// The `(path_length, dff)` entries, ascending.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Picos, DffId)> + 'a {
        let base = self.base;
        self.row.iter().map(move |&(cont, f)| (base + cont, f))
    }

    /// The longest path through the edge to any flip-flop.
    #[inline]
    pub fn longest(&self) -> Option<Picos> {
        self.row.last().map(|&(cont, _)| self.base + cont)
    }

    /// Index of the first entry whose path plus `extra` exceeds `clock`:
    /// the statically reachable flip-flops are the entries from here on.
    #[inline]
    fn first_reachable(&self, extra: Picos, clock: Picos) -> usize {
        self.row
            .partition_point(|&(cont, _)| (self.base + cont).saturating_add(extra) <= clock)
    }
}

impl PartialEq for EdgeSlack<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.row.len() == other.row.len()
            && self
                .row
                .iter()
                .zip(other.row)
                .all(|(&(a, f), &(b, g))| f == g && self.base + a == other.base + b)
    }
}

impl Eq for EdgeSlack<'_> {}

/// The result of static timing analysis: per-edge delays, arrival times,
/// downstream max-path times, and the derived clock period.
///
/// The clock period is set to the design's critical path (the longest
/// register-to-register or register-to-output path, including flip-flop
/// setup), mirroring the paper's experimental setup ("the clock period of
/// the Ibex core is set to equal the length of the longest path in the
/// entire design", §VI-A).
#[derive(Clone, Debug)]
pub struct TimingModel {
    /// Per-net propagation delay of each of the net's fanout edges
    /// (driver cell delay under the net's fanout load, plus wire delay).
    net_delay: Vec<Picos>,
    /// Per-net latest arrival time at the net's origin, with flip-flop
    /// outputs and primary inputs launching at t = 0.
    arrival: Vec<Picos>,
    /// Per-net longest continuation from the net's origin to any timing
    /// endpoint (flip-flop D pin including setup, or primary output).
    maxdown: Vec<Picos>,
    /// Per-net topological index (producers strictly before consumers).
    topo_index: Vec<u32>,
    clock_period: Picos,
    setup: Picos,
    /// Lazily built downstream-slack table (see [`SlackTable`]). Clones,
    /// guardbanded ones included, share one build through the `Arc`: the
    /// table stores absolute path lengths, so it is clock-independent.
    slack: Arc<OnceLock<SlackTable>>,
}

impl TimingModel {
    /// Runs static timing analysis.
    ///
    /// Cost is linear in the number of edges.
    pub fn analyze(c: &Circuit, topo: &Topology, lib: &TechLibrary) -> Self {
        let n = c.num_nets();
        let mut net_delay = vec![0 as Picos; n];
        for (id, _) in c.nets() {
            let fanout = topo.fanouts(id).len();
            net_delay[id.index()] = lib.edge_delay(c, id, fanout);
        }

        // Topological index: sources at 0, gate outputs in eval order.
        let mut topo_index = vec![0u32; n];
        for (i, &g) in topo.eval_order().iter().enumerate() {
            topo_index[c.gate(g).output().index()] =
                u32::try_from(i + 1).expect("gate count fits u32");
        }

        // Forward pass: latest arrival at each net origin.
        let mut arrival = vec![0 as Picos; n];
        for &g in topo.eval_order() {
            let gate = c.gate(g);
            let t = gate
                .inputs()
                .iter()
                .map(|&inp| arrival[inp.index()] + net_delay[inp.index()])
                .max()
                .expect("gates have at least one input");
            arrival[gate.output().index()] = t;
        }

        // Backward pass: longest continuation to an endpoint.
        let setup = lib.setup();
        let mut maxdown = vec![0 as Picos; n];
        let continuation = |maxdown: &[Picos], consumer: Consumer| -> Picos {
            match consumer {
                Consumer::GatePin { gate, .. } => maxdown[c.gate(gate).output().index()],
                Consumer::DffD(_) => setup,
                Consumer::OutputBit { .. } => 0,
            }
        };
        for &g in topo.eval_order().iter().rev() {
            let out = c.gate(g).output();
            let m = topo
                .fanouts(out)
                .iter()
                .map(|e| net_delay[out.index()] + continuation(&maxdown, e.consumer))
                .max()
                .unwrap_or(0);
            maxdown[out.index()] = m;
        }
        for (id, net) in c.nets() {
            if !matches!(net.driver(), Driver::Gate(_)) {
                let m = topo
                    .fanouts(id)
                    .iter()
                    .map(|e| net_delay[id.index()] + continuation(&maxdown, e.consumer))
                    .max()
                    .unwrap_or(0);
                maxdown[id.index()] = m;
            }
        }

        let clock_period = (0..n)
            .map(|i| arrival[i] + maxdown[i])
            .max()
            .unwrap_or(0)
            .max(1);

        TimingModel {
            net_delay,
            arrival,
            maxdown,
            topo_index,
            clock_period,
            setup,
            slack: Arc::default(),
        }
    }

    /// The derived clock period (the design's critical path length, plus
    /// any guardband applied with [`TimingModel::with_guardband`]).
    #[inline]
    pub fn clock_period(&self) -> Picos {
        self.clock_period
    }

    /// Returns a copy of this model with the clock period stretched by
    /// `percent` beyond the critical path — a **timing guardband**, the
    /// circuit-level mitigation knob for small delay faults: extra slack
    /// absorbs larger `d` before any path misses the latch deadline. The
    /// copy shares this model's slack table, built or not.
    ///
    /// # Panics
    ///
    /// Panics if `percent` is negative (clocking faster than the critical
    /// path would break the fault-free design).
    pub fn with_guardband(&self, percent: f64) -> Self {
        assert!(percent >= 0.0, "guardband must not shrink the clock");
        let mut out = self.clone();
        out.clock_period = (self.clock_period as f64 * (1.0 + percent / 100.0)).round() as Picos;
        out
    }

    /// The flip-flop setup time of the library used for analysis.
    #[inline]
    pub fn setup(&self) -> Picos {
        self.setup
    }

    /// The propagation delay of every fanout edge of `net`.
    #[inline]
    pub fn net_delay(&self, net: NetId) -> Picos {
        self.net_delay[net.index()]
    }

    /// The propagation delay of a specific edge.
    #[inline]
    pub fn edge_delay(&self, topo: &Topology, edge: EdgeId) -> Picos {
        self.net_delay[topo.edge(edge).source.index()]
    }

    /// Latest arrival time at the origin of `net` (0 for sources).
    #[inline]
    pub fn arrival(&self, net: NetId) -> Picos {
        self.arrival[net.index()]
    }

    /// Length of the longest complete source-to-endpoint path that traverses
    /// `edge` (including endpoint setup when it ends at a flip-flop).
    ///
    /// A small delay fault of duration `d` on `edge` can statically reach at
    /// least one state element iff `path_through_edge(..) + d` exceeds the
    /// clock period; this is the cheap pre-filter used before the per-DFF
    /// query.
    pub fn path_through_edge(&self, c: &Circuit, topo: &Topology, edge: EdgeId) -> Picos {
        let e = topo.edge(edge);
        let pin = self.arrival[e.source.index()] + self.net_delay[e.source.index()];
        let cont = match e.consumer {
            Consumer::GatePin { gate, .. } => self.maxdown[c.gate(gate).output().index()],
            Consumer::DffD(_) => self.setup,
            Consumer::OutputBit { .. } => 0,
        };
        pin + cont
    }

    /// Extracts one critical path: the sequence of nets along a longest
    /// source-to-endpoint path (sources first), each with its arrival time.
    ///
    /// Useful for understanding what sets the clock period — on the studied
    /// core this is typically the chain through the register-file read mux,
    /// the ALU carry chain and the write-back mux.
    pub fn critical_path(&self, c: &Circuit, topo: &Topology) -> Vec<(NetId, Picos)> {
        // Find the endpoint edge achieving the critical path.
        let mut best: Option<(NetId, Picos)> = None;
        for i in 0..topo.edges().len() {
            let e = topo.edge(delayavf_netlist::EdgeId::from_index(i));
            let endpoint_cont = match e.consumer {
                Consumer::DffD(_) => self.setup,
                Consumer::OutputBit { .. } => 0,
                Consumer::GatePin { .. } => continue,
            };
            let len =
                self.arrival[e.source.index()] + self.net_delay[e.source.index()] + endpoint_cont;
            if best.is_none_or(|(_, b)| len > b) {
                best = Some((e.source, len));
            }
        }
        let Some((mut net, _)) = best else {
            return Vec::new();
        };
        // Walk backward through gates, always taking an input whose arrival
        // plus edge delay equals this net's arrival.
        let mut path = vec![(net, self.arrival[net.index()])];
        while let Driver::Gate(g) = c.net(net).driver() {
            let gate = c.gate(g);
            let target = self.arrival[net.index()];
            let pred = gate
                .inputs()
                .iter()
                .copied()
                .find(|&i| self.arrival[i.index()] + self.net_delay[i.index()] == target)
                .expect("some input achieves the arrival time");
            net = pred;
            path.push((net, self.arrival[net.index()]));
        }
        path.reverse();
        path
    }

    /// The **statically reachable set** (paper Definition 2): the flip-flops
    /// that terminate at least one path through `edge` whose length exceeds
    /// the clock period once an additional delay of `extra` is inserted at
    /// the edge.
    ///
    /// Answered from the precomputed downstream-slack table (built lazily on
    /// first use, shared by clones): a binary search locates the suffix of
    /// the edge's path-sorted entries with `path + extra` beyond the clock
    /// period, replacing the per-query graph walk of
    /// [`TimingModel::statically_reachable_walk`], which is kept as the
    /// reference oracle.
    pub fn statically_reachable(
        &self,
        c: &Circuit,
        topo: &Topology,
        edge: EdgeId,
        extra: Picos,
    ) -> Vec<DffId> {
        let s = self.edge_slack_entries(c, topo, edge);
        let start = s.first_reachable(extra, self.clock_period);
        let mut reachable: Vec<DffId> = s.row[start..].iter().map(|&(_, f)| f).collect();
        reachable.sort_unstable();
        reachable
    }

    /// The size of [`TimingModel::statically_reachable`]'s set, from the
    /// same binary search and without collecting it. Zero means the
    /// injection is statically filtered.
    pub fn statically_reachable_count(
        &self,
        c: &Circuit,
        topo: &Topology,
        edge: EdgeId,
        extra: Picos,
    ) -> usize {
        let s = self.edge_slack_entries(c, topo, edge);
        s.len() - s.first_reachable(extra, self.clock_period)
    }

    /// The downstream-slack entries of `edge` (see [`EdgeSlack`]): the
    /// "same-slack" half of the fault-collapsing criterion compares exactly
    /// these views.
    ///
    /// Builds the table lazily, like [`TimingModel::statically_reachable`].
    pub fn edge_slack_entries(&self, c: &Circuit, topo: &Topology, edge: EdgeId) -> EdgeSlack<'_> {
        let e = topo.edge(edge);
        let table = self.slack.get_or_init(|| SlackTable::build(self, c, topo));
        EdgeSlack {
            base: self.arrival[e.source.index()] + self.net_delay[e.source.index()],
            row: table.sink_row(c, e.consumer),
        }
    }

    /// Number of `(continuation, dff)` pairs the downstream-slack table
    /// stores, building it if needed: its size, for the benchmark record.
    pub fn slack_table_pairs(&self, c: &Circuit, topo: &Topology) -> usize {
        self.slack
            .get_or_init(|| SlackTable::build(self, c, topo))
            .entries
            .len()
    }

    /// Reference implementation of [`TimingModel::statically_reachable`]:
    /// a longest-path relaxation over the fanout cone of the edge's sink,
    /// recomputed per query. Kept as the differential oracle for the
    /// downstream-slack table; cost is proportional to the affected cone.
    ///
    /// Arithmetic saturates like the table query's does (`saturating_add`),
    /// so extreme `extra` values pin to `Picos::MAX` instead of wrapping —
    /// the two implementations agree across the whole input domain.
    pub fn statically_reachable_walk(
        &self,
        c: &Circuit,
        topo: &Topology,
        edge: EdgeId,
        extra: Picos,
    ) -> Vec<DffId> {
        let e = topo.edge(edge);
        let pin_time = (self.arrival[e.source.index()] + self.net_delay[e.source.index()])
            .saturating_add(extra);
        let mut reachable = Vec::new();
        // Latest fault-affected arrival per net origin.
        let mut fault_time: HashMap<NetId, Picos> = HashMap::new();
        let mut heap: BinaryHeap<(Reverse<u32>, NetId)> = BinaryHeap::new();

        let visit = |consumer: Consumer,
                     time: Picos,
                     fault_time: &mut HashMap<NetId, Picos>,
                     heap: &mut BinaryHeap<(Reverse<u32>, NetId)>,
                     reachable: &mut Vec<DffId>| {
            match consumer {
                Consumer::DffD(f) => {
                    if time.saturating_add(self.setup) > self.clock_period {
                        reachable.push(f);
                    }
                }
                Consumer::GatePin { gate, .. } => {
                    let out = c.gate(gate).output();
                    match fault_time.entry(out) {
                        Entry::Vacant(v) => {
                            v.insert(time);
                            heap.push((Reverse(self.topo_index[out.index()]), out));
                        }
                        Entry::Occupied(mut o) => {
                            if *o.get() < time {
                                o.insert(time);
                            }
                        }
                    }
                }
                // Primary outputs are registered in the studied designs; a
                // late output is not a state-element error by itself.
                Consumer::OutputBit { .. } => {}
            }
        };

        visit(
            e.consumer,
            pin_time,
            &mut fault_time,
            &mut heap,
            &mut reachable,
        );
        while let Some((_, net)) = heap.pop() {
            let depart = fault_time[&net].saturating_add(self.net_delay[net.index()]);
            for eo in topo.fanouts(net) {
                visit(
                    eo.consumer,
                    depart,
                    &mut fault_time,
                    &mut heap,
                    &mut reachable,
                );
            }
        }
        reachable.sort_unstable();
        reachable.dedup();
        reachable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayavf_netlist::CircuitBuilder;

    /// Chain: in -> NOT -> NOT -> NOT -> DFF, plus a short side path
    /// in -> DFF2. Unit library: every gate 1000 ps.
    fn chain() -> (Circuit, Topology, TimingModel, Vec<EdgeId>) {
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let n1 = b.not(a);
        let n2 = b.not(n1);
        let n3 = b.not(n2);
        let r = b.reg("deep", false);
        b.drive(r, n3);
        let r2 = b.reg("shallow", false);
        b.drive(r2, a);
        b.output("q", r.q());
        b.output("q2", r2.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let tm = TimingModel::analyze(&c, &topo, &TechLibrary::unit());
        let all_edges: Vec<EdgeId> = (0..topo.edges().len()).map(EdgeId::from_index).collect();
        (c, topo, tm, all_edges)
    }

    #[test]
    fn clock_period_is_longest_path() {
        let (_, _, tm, _) = chain();
        // Longest path: NOT -> NOT -> NOT each contributing 1000 ps on their
        // output edges; input and DFF-q edges are free under the unit lib
        // only for inputs (DFFs cost 1000). Critical: a->n1 (0) + n1 (1000)
        // + n2 (1000) + n3 (1000) = 3000.
        assert_eq!(tm.clock_period(), 3000);
    }

    #[test]
    fn arrival_times_accumulate_along_chain() {
        let (c, _, tm, _) = chain();
        // Gate outputs in creation order: n1, n2, n3.
        let mut arrivals: Vec<Picos> = c.gates().map(|(_, g)| tm.arrival(g.output())).collect();
        arrivals.sort_unstable();
        assert_eq!(arrivals, vec![0, 1000, 2000]);
    }

    #[test]
    fn path_through_edge_spans_full_paths() {
        let (c, topo, tm, edges) = chain();
        let deep = c.dffs().find(|(_, d)| d.name() == "deep").unwrap().0;
        // The edge into the deep DFF's D pin lies on the 3000 ps path.
        let e_into_deep = edges
            .iter()
            .copied()
            .find(|&e| matches!(topo.edge(e).consumer, Consumer::DffD(f) if f == deep))
            .unwrap();
        assert_eq!(tm.path_through_edge(&c, &topo, e_into_deep), 3000);
    }

    #[test]
    fn statically_reachable_depends_on_slack() {
        let (c, topo, tm, edges) = chain();
        let deep = c.dffs().find(|(_, d)| d.name() == "deep").unwrap().0;
        let shallow = c.dffs().find(|(_, d)| d.name() == "shallow").unwrap().0;
        // Edge from input `a` to the first NOT: full path 3000 = clock, so
        // zero slack; any positive extra delay makes `deep` reachable.
        let first = edges
            .iter()
            .copied()
            .find(|&e| {
                topo.edge(e).source == c.input_nets()[0]
                    && matches!(topo.edge(e).consumer, Consumer::GatePin { .. })
            })
            .unwrap();
        assert_eq!(tm.statically_reachable(&c, &topo, first, 0), vec![]);
        assert_eq!(tm.statically_reachable(&c, &topo, first, 1), vec![deep]);
        // Edge from input `a` directly to the shallow DFF has 3000 ps of
        // slack: small delays reach nothing, a delay > 3000 reaches it.
        let direct = edges
            .iter()
            .copied()
            .find(|&e| matches!(topo.edge(e).consumer, Consumer::DffD(f) if f == shallow))
            .unwrap();
        assert_eq!(tm.statically_reachable(&c, &topo, direct, 2999), vec![]);
        assert_eq!(
            tm.statically_reachable(&c, &topo, direct, 3001),
            vec![shallow]
        );
    }

    #[test]
    fn critical_path_walks_the_longest_chain() {
        let (c, topo, tm, _) = chain();
        let path = tm.critical_path(&c, &topo);
        // in -> n1 -> n2 -> n3: four nets, arrivals 0, 0, 1000, 2000.
        assert_eq!(path.len(), 4);
        let arrivals: Vec<_> = path.iter().map(|&(_, t)| t).collect();
        assert_eq!(arrivals, vec![0, 0, 1000, 2000]);
        // The path ends at a net whose full length equals the clock.
        let (last, t) = *path.last().unwrap();
        assert_eq!(t + tm.net_delay(last) + tm.setup(), tm.clock_period());
        // Sources first: the first net is not gate-driven.
        assert!(!matches!(c.net(path[0].0).driver(), Driver::Gate(_)));
    }

    #[test]
    fn guardband_stretches_the_clock_and_shrinks_reach() {
        let (c, topo, tm, edges) = chain();
        let relaxed = tm.with_guardband(50.0);
        assert_eq!(relaxed.clock_period(), 4500);
        // An extra delay that reaches a DFF at the tight clock is absorbed
        // by the guardband.
        let first = edges
            .iter()
            .copied()
            .find(|&e| {
                topo.edge(e).source == c.input_nets()[0]
                    && matches!(topo.edge(e).consumer, Consumer::GatePin { .. })
            })
            .unwrap();
        assert_eq!(tm.statically_reachable(&c, &topo, first, 100).len(), 1);
        assert!(relaxed
            .statically_reachable(&c, &topo, first, 100)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "guardband")]
    fn negative_guardband_panics() {
        let (_, _, tm, _) = chain();
        let _ = tm.with_guardband(-5.0);
    }

    #[test]
    fn slack_table_matches_the_walk_on_every_edge_and_extra() {
        let (c, topo, tm, edges) = chain();
        let extras: [Picos; 9] = [0, 1, 500, 999, 1000, 2999, 3000, 3001, 10_000];
        for &e in &edges {
            for extra in extras {
                assert_eq!(
                    tm.statically_reachable(&c, &topo, e, extra),
                    tm.statically_reachable_walk(&c, &topo, e, extra),
                    "edge {e:?} extra {extra}"
                );
            }
        }
        // A guardbanded clone shares the absolute-path table; the query
        // compares against the stretched clock and must still match the
        // walk exactly.
        let relaxed = tm.with_guardband(37.0);
        for &e in &edges {
            for extra in extras {
                assert_eq!(
                    relaxed.statically_reachable(&c, &topo, e, extra),
                    relaxed.statically_reachable_walk(&c, &topo, e, extra),
                    "guardbanded edge {e:?} extra {extra}"
                );
            }
        }
    }

    #[test]
    fn clones_share_one_slack_table() {
        // A guardbanded clone taken before the table exists must see the
        // very table the original builds later, not a copy or a rebuild.
        let (c, topo, tm, edges) = chain();
        let relaxed = tm.with_guardband(10.0);
        let e = edges[0];
        let original = tm.edge_slack_entries(&c, &topo, e);
        let clone = relaxed.edge_slack_entries(&c, &topo, e);
        assert!(!original.is_empty());
        assert!(std::ptr::eq(original.row, clone.row));
        assert_eq!(original, clone);
    }

    #[test]
    fn fanout_reconvergence_reaches_both_dffs() {
        // a -> x (XOR with itself is silly; use two sinks): x drives two
        // separate chains of different depth ending in two DFFs.
        let mut b = CircuitBuilder::new();
        let a = b.input("a");
        let x = b.not(a);
        let long1 = b.not(x);
        let long2 = b.not(long1);
        let r_long = b.reg("long", false);
        b.drive(r_long, long2);
        let r_short = b.reg("short", false);
        b.drive(r_short, x);
        b.output("o1", r_long.q());
        b.output("o2", r_short.q());
        let c = b.finish().unwrap();
        let topo = Topology::new(&c);
        let tm = TimingModel::analyze(&c, &topo, &TechLibrary::unit());
        assert_eq!(tm.clock_period(), 3000);
        // The a->NOT edge feeds both DFFs; with a large extra delay both
        // become statically reachable through the same single fault.
        let e = (0..topo.edges().len())
            .map(EdgeId::from_index)
            .find(|&e| topo.edge(e).source == c.input_nets()[0])
            .unwrap();
        let reach = tm.statically_reachable(&c, &topo, e, 2500);
        assert_eq!(reach.len(), 2, "one SDF can statically reach many DFFs");
    }
}
