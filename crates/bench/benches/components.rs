//! Criterion benchmarks of the framework's computational kernels, including
//! the ablations called out in DESIGN.md (pre-filters on/off, faulty vs
//! fault-free timing simulation).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use delayavf::{prepare_golden, CollapsePlan, Injector};
use delayavf_netlist::{EdgeId, Topology};
use delayavf_rvcore::{build_core, CoreConfig, MemEnv, DEFAULT_RAM_BYTES};
use delayavf_sim::{
    settle, BatchSim, CycleSim, DeltaEventSim, Environment, EventSim, FaultSpec, GoldenTrace,
    GoldenWave, LaneWord, W256,
};
use delayavf_timing::{Picos, TechLibrary, TimingModel};
use delayavf_workloads::{Kernel, Scale};

struct Fix {
    core: delayavf_rvcore::Core,
    topo: Topology,
    timing: TimingModel,
    program: delayavf_isa::Program,
}

fn fix() -> Fix {
    let core = build_core(CoreConfig::default());
    let topo = Topology::new(&core.circuit);
    let timing = TimingModel::analyze(&core.circuit, &topo, &TechLibrary::nangate45_like());
    let program = Kernel::Libstrstr
        .build(Scale::Tiny)
        .assemble()
        .expect("assembles");
    Fix {
        core,
        topo,
        timing,
        program,
    }
}

fn bench_build_and_sta(c: &mut Criterion) {
    c.bench_function("build_core", |b| {
        b.iter(|| build_core(CoreConfig::default()))
    });
    let core = build_core(CoreConfig::default());
    c.bench_function("topology", |b| b.iter(|| Topology::new(&core.circuit)));
    let topo = Topology::new(&core.circuit);
    let lib = TechLibrary::nangate45_like();
    c.bench_function("sta_analyze", |b| {
        b.iter(|| TimingModel::analyze(&core.circuit, &topo, &lib))
    });
}

fn bench_cycle_sim(c: &mut Criterion) {
    let f = fix();
    c.bench_function("cycle_sim_100_cycles", |b| {
        b.iter_batched(
            || {
                (
                    CycleSim::new(&f.core.circuit, &f.topo),
                    MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program),
                )
            },
            |(mut sim, mut env)| sim.run(&mut env, 100),
            BatchSize::SmallInput,
        )
    });
}

fn bench_event_sim(c: &mut Criterion) {
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 4);
    let cycle = golden.sampled_cycles[1];
    let nd = f.core.circuit.num_dffs();
    let prev_state = golden.trace.state_bits_at(cycle - 1, nd);
    let prev_values = settle(
        &f.core.circuit,
        &f.topo,
        &prev_state,
        golden.trace.inputs_at(cycle - 1),
    );
    let new_state = golden.trace.state_bits_at(cycle, nd);
    let inputs = golden.trace.inputs_at(cycle).to_vec();
    let edge = f.topo.structure_edges(&f.core.circuit, "alu").unwrap()[0];
    let mut sim = EventSim::new(&f.core.circuit, &f.topo, &f.timing);
    let extra = f.timing.clock_period() / 2;
    c.bench_function("event_sim_faulty_cycle", |b| {
        b.iter(|| {
            let _ = sim.latch_cycle(
                &prev_values,
                &new_state,
                &inputs,
                Some(FaultSpec { edge, extra }),
            );
        })
    });
    c.bench_function("event_sim_fault_free_cycle", |b| {
        b.iter(|| {
            let _ = sim.latch_cycle(&prev_values, &new_state, &inputs, None);
        })
    });
    // The incremental engine on the same injection, with the cycle's golden
    // waveform already built (the steady state inside a campaign, where one
    // build is shared by every edge injected at the cycle).
    let mut gold = GoldenWave::new(&f.core.circuit, &f.topo, &f.timing);
    gold.ensure(cycle, &prev_values, &new_state, &inputs);
    let mut delta = DeltaEventSim::new(&f.core.circuit, &f.topo, &f.timing);
    c.bench_function("delta_sim_faulty_cycle_warm", |b| {
        b.iter(|| {
            let _ = delta.latch_cycle(&gold, FaultSpec { edge, extra });
        })
    });
    // Cold: rebuild the waveform each iteration by alternating cycle keys,
    // so every injection pays for a fresh golden-waveform build.
    c.bench_function("delta_sim_faulty_cycle_cold", |b| {
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            gold.ensure(u64::from(flip), &prev_values, &new_state, &inputs);
            let _ = delta.latch_cycle(&gold, FaultSpec { edge, extra });
        })
    });
}

fn bench_static_reach(c: &mut Criterion) {
    let f = fix();
    let edges = f.topo.structure_edges(&f.core.circuit, "alu").unwrap();
    let extra = f.timing.clock_period() / 2;
    c.bench_function("statically_reachable_per_edge", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let e = edges[i % edges.len()];
            i += 1;
            f.timing
                .statically_reachable(&f.core.circuit, &f.topo, e, extra)
        })
    });
    // Ablation: the O(1) pre-filter that makes low-d sweeps cheap.
    c.bench_function("path_through_edge_prefilter", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let e = edges[i % edges.len()];
            i += 1;
            f.timing.path_through_edge(&f.core.circuit, &f.topo, e)
        })
    });
    // Ablation: the reference forward walk the sorted slack table replaces.
    c.bench_function("statically_reachable_walk_per_edge", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let e = edges[i % edges.len()];
            i += 1;
            f.timing
                .statically_reachable_walk(&f.core.circuit, &f.topo, e, extra)
        })
    });
}

fn bench_injection(c: &mut Criterion) {
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let edges: Vec<EdgeId> = f
        .topo
        .structure_edges(&f.core.circuit, "alu")
        .unwrap()
        .into_iter()
        .take(16)
        .collect();
    let cycle = golden.sampled_cycles[2];
    // Ablation: a small delay exercises only the static pre-filter; a large
    // one runs the full two-step pipeline (event sim + GroupACE replay).
    for (label, frac) in [("d10", 0.1), ("d90", 0.9)] {
        let extra = (f.timing.clock_period() as f64 * frac) as u64;
        c.bench_function(&format!("inject_16_alu_edges_{label}"), |b| {
            b.iter_batched(
                || Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500),
                |mut inj| {
                    for &e in &edges {
                        let _ = inj.inject(cycle, e, extra);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_early_exit_ablation(c: &mut Criterion) {
    // Ablation: the convergence early-exit in the GroupACE replay. With it
    // disabled every replay runs the whole remaining program; results are
    // identical, only the cost changes.
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let cycle = golden.sampled_cycles[2];
    let dffs: Vec<_> = f
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(8)
        .collect();
    for (label, early) in [("early_exit_on", true), ("early_exit_off", false)] {
        c.bench_function(&format!("groupace_8_strikes_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500);
                    inj.set_early_exit(early);
                    inj
                },
                |mut inj| {
                    for &d in &dffs {
                        let _ = inj.bit_ace(cycle, d);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_replay_ablation(c: &mut Criterion) {
    // Ablation at the simulator level: the production replay engine run as
    // a one-lane batch (`BatchSim`, stepping the strike's own environment on
    // the lane's outputs) vs a full cycle-by-cycle replay (`CycleSim`) of
    // the same eight single-bit strikes, each stepped for the same window
    // from the golden checkpoint: the single-scenario cost of a replay.
    // Both compute the same states; only the gates evaluated per cycle
    // change.
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let boundary = golden.sampled_cycles[2];
    let cp = &golden.checkpoints[&boundary];
    let window = (golden.trace.num_cycles() - boundary - 1).min(100);
    let dffs: Vec<_> = f
        .core
        .circuit
        .structure("lsu")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(8)
        .collect();
    let mut batch = BatchSim::new(&f.core.circuit, &f.topo);
    let mut inputs = vec![0u64; f.core.circuit.input_ports().len()];
    c.bench_function("replay_8_strikes_one_lane_batch", |b| {
        b.iter(|| {
            for &d in &dffs {
                let mut env = cp.env.clone();
                batch.begin(boundary, &[vec![d]], &golden.trace);
                for _ in 0..window {
                    inputs.fill(0);
                    let outputs = batch.lane_outputs(0, &golden.trace);
                    env.step(batch.cycle(), &outputs, &mut inputs);
                    batch.set_lane_inputs(0, &inputs, &golden.trace);
                    batch.step(&golden.trace);
                }
            }
        })
    });
    let mut full = CycleSim::new(&f.core.circuit, &f.topo);
    c.bench_function("replay_8_strikes_cycle_sim", |b| {
        b.iter(|| {
            for &d in &dffs {
                let mut env = cp.env.clone();
                full.restore(cp.cycle, &cp.state, &cp.prev_outputs);
                full.flip_dff(d);
                for _ in 0..window {
                    full.step(&mut env);
                }
            }
        })
    });
}

/// The 512 spatial double-strike sets the wide-lane batch ablation runs:
/// every pair drawn (in order) from the first 64 register-file bits. The
/// pair cones overlap heavily — the shape where lane-packing pays, and the
/// shape [`delayavf::spatial_double_strike_campaign`] issues.
fn pair_strike_sets(f: &Fix) -> Vec<Vec<delayavf_netlist::DffId>> {
    let dffs: Vec<_> = f
        .core
        .circuit
        .structure("regfile")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(64)
        .collect();
    let mut sets = Vec::with_capacity(512);
    'outer: for i in 0..dffs.len() {
        for j in (i + 1)..dffs.len() {
            sets.push(vec![dffs[i], dffs[j]]);
            if sets.len() == 512 {
                break 'outer;
            }
        }
    }
    sets
}

fn bench_batch_ablation(c: &mut Criterion) {
    // Ablation: the bit-parallel batch replay vs the scalar incremental
    // engine, across the `u64`, 256- and 512-lane carriers. `lanes = 1`
    // disables batching entirely; results are identical, only the wall
    // clock changes.
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let cycle = golden.sampled_cycles[2];
    let dffs: Vec<_> = f
        .core
        .circuit
        .structure("regfile")
        .unwrap()
        .dffs()
        .iter()
        .copied()
        .take(64)
        .collect();
    assert_eq!(dffs.len(), 64, "one full u64 batch of strike scenarios");
    for (label, lanes) in [("lanes1", 1usize), ("lanes64", 64)] {
        c.bench_function(&format!("savf_64_strikes_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500);
                    inj.set_lanes(lanes);
                    inj
                },
                |mut inj| {
                    inj.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
                    for &d in &dffs {
                        let _ = inj.bit_ace(cycle, d);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The wide-carrier axis needs more scenarios per boundary than state
    // bits: 512 spatial double strikes fill one 512-lane word.
    let sets = pair_strike_sets(&f);
    for (label, lanes) in [("lanes1", 1usize), ("lanes64", 64), ("lanes512", 512)] {
        c.bench_function(&format!("savf_512_pair_strikes_{label}"), |b| {
            b.iter_batched(
                || {
                    let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500);
                    inj.set_lanes(lanes);
                    inj
                },
                |mut inj| {
                    inj.prefill_failures(cycle, sets.iter().cloned());
                    for s in &sets {
                        let _ = inj.group_ace(cycle, s);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    emit_batch_snapshot(&f, &golden, &dffs, &sets);
}

/// Hand-timed lane-width ablation snapshot, written to `BENCH_batch.json`
/// at the workspace root so the perf trajectory of the batch engine is
/// tracked in-tree (the vendored criterion stand-in does not persist
/// measurements). The headline entry is the 512-pair-strike shape across
/// the 1/64/256/512 lane axis; the original 64-single-strike shape stays
/// as a secondary entry.
fn emit_batch_snapshot(
    f: &Fix,
    golden: &delayavf::GoldenRun<MemEnv>,
    dffs: &[delayavf_netlist::DffId],
    sets: &[Vec<delayavf_netlist::DffId>],
) {
    use std::time::Instant;
    let widths = [1usize, 64, 256, 512];
    let mut best = [f64::INFINITY; 4];
    let mut util = 0.0;
    for (slot, lanes) in widths.into_iter().enumerate() {
        for _rep in 0..3 {
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            inj.set_lanes(lanes);
            let t = Instant::now();
            for &cycle in &golden.sampled_cycles {
                inj.prefill_failures(cycle, sets.iter().cloned());
                for s in sets {
                    let _ = inj.group_ace(cycle, s);
                }
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            best[slot] = best[slot].min(ms);
            if lanes == 512 {
                util = inj.stats.lane_utilization();
            }
        }
    }
    let mut single = [f64::INFINITY; 2];
    for (slot, lanes) in [1usize, 64].into_iter().enumerate() {
        for _rep in 0..3 {
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            inj.set_lanes(lanes);
            let t = Instant::now();
            for &cycle in &golden.sampled_cycles {
                inj.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
                for &d in dffs {
                    let _ = inj.bit_ace(cycle, d);
                }
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            single[slot] = single[slot].min(ms);
        }
    }
    let dense_u64 = dense_settle_ns_per_gate::<u64>(f);
    let dense_w256 = dense_settle_ns_per_gate::<W256>(f);
    let json = format!(
        "{{\n  \"bench\": \"savf_512_pair_strikes_over_{}_cycles\",\n  \"lanes1_ms\": {:.3},\n  \"lanes64_ms\": {:.3},\n  \"lanes256_ms\": {:.3},\n  \"lanes512_ms\": {:.3},\n  \"speedup64\": {:.2},\n  \"speedup256\": {:.2},\n  \"speedup512\": {:.2},\n  \"speedup\": {:.2},\n  \"lane_utilization\": {:.3},\n  \"single_strike_lanes1_ms\": {:.3},\n  \"single_strike_lanes64_ms\": {:.3},\n  \"single_strike_speedup\": {:.2},\n  \"dense_settle_u64_ns_per_gate\": {:.2},\n  \"dense_settle_w256_ns_per_gate\": {:.2}\n}}\n",
        golden.sampled_cycles.len(),
        best[0],
        best[1],
        best[2],
        best[3],
        best[0] / best[1],
        best[0] / best[2],
        best[0] / best[3],
        best[0] / best[3],
        util,
        single[0],
        single[1],
        single[0] / single[1],
        dense_u64,
        dense_w256,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(path, json).expect("write BENCH_batch.json");
}

/// The dense settle kernel on the plain core's plan: nanoseconds per gate
/// of one [`delayavf_netlist::EvalPlan::settle`] over lane words `W`, best
/// of three timings of 200 settles.
fn dense_settle_ns_per_gate<W: LaneWord>(f: &Fix) -> f64 {
    use std::time::Instant;
    let plan = f.topo.plan();
    let mut vals: Vec<W> = (0..f.core.circuit.num_nets())
        .map(|i| W::splat(i % 3 == 0))
        .collect();
    let reps = 200;
    let mut best = f64::INFINITY;
    for _rep in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            plan.settle(std::hint::black_box(&mut vals));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    best * 1e9 / (reps * plan.len()) as f64
}

/// One injection cycle's timing context: the cycle, the settled net values
/// of the cycle before, the flip-flop values latched at its clock edge and
/// its input words.
type CycleContext = (u64, Vec<bool>, Vec<bool>, Vec<u64>);

/// The timing contexts of every sampled cycle with a successor boundary.
fn cycle_contexts(f: &Fix, golden: &delayavf::GoldenRun<MemEnv>) -> Vec<CycleContext> {
    let nd = f.core.circuit.num_dffs();
    let trace = &golden.trace;
    golden
        .sampled_cycles
        .iter()
        .filter(|&&cycle| cycle >= 1 && cycle + 1 < trace.num_cycles())
        .map(|&cycle| {
            let prev_values = settle(
                &f.core.circuit,
                &f.topo,
                &trace.state_bits_at(cycle - 1, nd),
                trace.inputs_at(cycle - 1),
            );
            let state = trace.state_bits_at(cycle, nd);
            (cycle, prev_values, state, trace.inputs_at(cycle).to_vec())
        })
        .collect()
}

fn bench_delta_timing_ablation(c: &mut Criterion) {
    // Ablation at the simulator level: the incremental timing-aware engine
    // (one golden-waveform build per cycle + fault-cone delta events) vs
    // the full event simulator, latching the same 32 ALU faults at one
    // cycle with a delay large enough to matter. Both latch bit-identical
    // values; only the wall clock changes.
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let edges: Vec<EdgeId> = f
        .topo
        .structure_edges(&f.core.circuit, "alu")
        .unwrap()
        .into_iter()
        .take(32)
        .collect();
    let extra = f.timing.clock_period() * 9 / 10;
    let contexts = cycle_contexts(&f, &golden);
    let (_, prev_values, state, inputs) = &contexts[1];
    let mut gold = GoldenWave::new(&f.core.circuit, &f.topo, &f.timing);
    let mut delta = DeltaEventSim::new(&f.core.circuit, &f.topo, &f.timing);
    c.bench_function("step1_32_alu_edges_delta", |b| {
        let mut flip = false;
        b.iter(|| {
            // A fresh build per iteration: the per-cycle cost of a sweep.
            flip = !flip;
            gold.ensure(u64::from(flip), prev_values, state, inputs);
            for &edge in &edges {
                let _ = delta.latch_cycle(&gold, FaultSpec { edge, extra });
            }
        })
    });
    let mut full = EventSim::new(&f.core.circuit, &f.topo, &f.timing);
    c.bench_function("step1_32_alu_edges_full_event", |b| {
        b.iter(|| {
            for &edge in &edges {
                let _ =
                    full.latch_cycle(prev_values, state, inputs, Some(FaultSpec { edge, extra }));
            }
        })
    });
    emit_timing_snapshot(&f, &golden, &contexts, &edges, extra);
}

fn bench_timing_batch_ablation(c: &mut Criterion) {
    // Ablation: the lane-packed timing batch (step 1 for a whole cycle's
    // worth of edges in one packed propagation) vs the scalar incremental
    // engine edge by edge. `timing_lanes = 1` routes the batched entry
    // point straight to the scalar engine; results are identical, only the
    // wall clock changes.
    let f = fix();
    let env = MemEnv::new(&f.core.circuit, DEFAULT_RAM_BYTES, &f.program);
    let golden = prepare_golden(&f.core.circuit, &f.topo, &env, 100_000, 6);
    let cycle = golden.sampled_cycles[2];
    let extra = f.timing.clock_period() * 9 / 10;
    for structure in ["alu", "decoder", "lsu"] {
        let pairs: Vec<(EdgeId, Picos)> = f
            .topo
            .structure_edges(&f.core.circuit, structure)
            .unwrap()
            .into_iter()
            .take(64)
            .map(|e| (e, extra))
            .collect();
        for (label, timing_lanes) in [("timing_lanes1", 1usize), ("timing_lanes64", 64)] {
            // Warm: the setup call builds and caches the cycle's golden
            // waveform, so the measurement isolates the packed propagation
            // — the steady state inside a sweep, where one build is shared
            // by every edge injected at the cycle.
            c.bench_function(
                &format!("step1_batch_64_{structure}_edges_{label}_warm"),
                |b| {
                    b.iter_batched(
                        || {
                            let mut inj =
                                Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500);
                            inj.set_timing_lanes(timing_lanes);
                            let _ = inj.dynamically_reachable_batch(cycle, &pairs);
                            inj
                        },
                        |mut inj| {
                            let _ = inj.dynamically_reachable_batch(cycle, &pairs);
                        },
                        BatchSize::SmallInput,
                    )
                },
            );
        }
    }
    // The wide-carrier axis: 512 distinct ALU edges in one batch call,
    // carried by one 512-lane word (`timing_lanes512`) or eight u64 chunks
    // (`timing_lanes64`).
    let wide_pairs: Vec<(EdgeId, Picos)> = f
        .topo
        .structure_edges(&f.core.circuit, "alu")
        .unwrap()
        .into_iter()
        .take(512)
        .map(|e| (e, extra))
        .collect();
    for (label, timing_lanes) in [("timing_lanes64", 64usize), ("timing_lanes512", 512)] {
        c.bench_function(&format!("step1_batch_512_alu_edges_{label}_warm"), |b| {
            b.iter_batched(
                || {
                    let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, &golden, 500);
                    inj.set_timing_lanes(timing_lanes);
                    let _ = inj.dynamically_reachable_batch(cycle, &wide_pairs);
                    inj
                },
                |mut inj| {
                    let _ = inj.dynamically_reachable_batch(cycle, &wide_pairs);
                },
                BatchSize::SmallInput,
            )
        });
    }
}

/// Hand-timed snapshot of the timing step over every sampled cycle,
/// written to `BENCH_timing.json` at the workspace root so the perf
/// trajectory of the timing-aware engines is tracked in-tree (the vendored
/// criterion stand-in does not persist measurements). The injector rows
/// time its scalar step 1 (`delta_ms`) and its 64-lane batch
/// (`batch_ms`); the ablation rows time the simulators alone on every
/// fault: the delta engine with one golden-waveform build per cycle
/// (`sim_delta_ms`) against the full event simulator (`full_event_ms`).
fn emit_timing_snapshot(
    f: &Fix,
    golden: &delayavf::GoldenRun<MemEnv>,
    contexts: &[CycleContext],
    edges: &[EdgeId],
    extra: u64,
) {
    use std::time::Instant;
    // Slots: injector scalar, full event sim, injector batch, delta sim.
    let mut best = [f64::INFINITY; 4];
    let mut builds = 0u64;
    let mut util = 0.0;
    let pairs: Vec<(EdgeId, Picos)> = edges.iter().map(|&e| (e, extra)).collect();
    for _rep in 0..3 {
        let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
        let t = Instant::now();
        for (cycle, ..) in contexts {
            for &e in edges {
                let _ = inj.dynamically_reachable(*cycle, e, extra);
            }
        }
        best[0] = best[0].min(t.elapsed().as_secs_f64() * 1e3);
        builds = inj.stats.golden_waveform_builds;
    }
    let mut full = EventSim::new(&f.core.circuit, &f.topo, &f.timing);
    let mut gold = GoldenWave::new(&f.core.circuit, &f.topo, &f.timing);
    let mut delta = DeltaEventSim::new(&f.core.circuit, &f.topo, &f.timing);
    for rep in 0..3u64 {
        let t = Instant::now();
        for (_, prev_values, state, inputs) in contexts {
            for &edge in edges {
                let _ =
                    full.latch_cycle(prev_values, state, inputs, Some(FaultSpec { edge, extra }));
            }
        }
        best[1] = best[1].min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for (cycle, prev_values, state, inputs) in contexts {
            // Alternate the key per repetition so every cycle is rebuilt.
            gold.ensure(cycle * 2 + (rep & 1), prev_values, state, inputs);
            for &edge in edges {
                let _ = delta.latch_cycle(&gold, FaultSpec { edge, extra });
            }
        }
        best[3] = best[3].min(t.elapsed().as_secs_f64() * 1e3);
    }
    for _rep in 0..3 {
        let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
        let t = Instant::now();
        for (cycle, ..) in contexts {
            let _ = inj.dynamically_reachable_batch(*cycle, &pairs);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        best[2] = best[2].min(ms);
        util = inj.stats.timing_lane_utilization();
    }
    // Warm steady state at one cycle, per structure: the golden waveform
    // is cached, so the scalar-vs-batch comparison isolates the
    // propagation itself (the build cost above is shared by both paths and
    // amortizes over every edge injected at a cycle). 64 edges fill one
    // u64 batch — the shape the delay sweep issues.
    let cycle = golden.sampled_cycles[2];
    let mut warm_json = String::new();
    for structure in ["alu", "decoder", "lsu"] {
        let spairs: Vec<(EdgeId, Picos)> = f
            .topo
            .structure_edges(&f.core.circuit, structure)
            .unwrap()
            .into_iter()
            .take(64)
            .map(|e| (e, extra))
            .collect();
        let mut warm = [f64::INFINITY; 2];
        {
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            for &(e, x) in &spairs {
                let _ = inj.dynamically_reachable(cycle, e, x);
            }
            for _rep in 0..5 {
                let t = Instant::now();
                for &(e, x) in &spairs {
                    let _ = inj.dynamically_reachable(cycle, e, x);
                }
                warm[0] = warm[0].min(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        {
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            let _ = inj.dynamically_reachable_batch(cycle, &spairs);
            for _rep in 0..5 {
                let t = Instant::now();
                let _ = inj.dynamically_reachable_batch(cycle, &spairs);
                warm[1] = warm[1].min(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        warm_json.push_str(&format!(
            ",\n  \"warm_{structure}64_scalar_ms\": {:.3},\n  \"warm_{structure}64_batch_ms\": {:.3},\n  \"warm_{structure}64_batch_speedup\": {:.2}",
            warm[0],
            warm[1],
            warm[0] / warm[1]
        ));
    }
    // Wide-carrier warm ablation: N distinct ALU edges per batch call at
    // every timing-lane width that fits them. The scalar column replays
    // the same N edges one at a time; the speedup key uses the full-width
    // carrier (timing_lanes = N), the honest wide-word number.
    for n in [256usize, 512] {
        let spairs: Vec<(EdgeId, Picos)> = f
            .topo
            .structure_edges(&f.core.circuit, "alu")
            .unwrap()
            .into_iter()
            .take(n)
            .map(|e| (e, extra))
            .collect();
        assert_eq!(spairs.len(), n, "alu has at least {n} timed edges");
        let mut scalar = f64::INFINITY;
        {
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            for &(e, x) in &spairs {
                let _ = inj.dynamically_reachable(cycle, e, x);
            }
            for _rep in 0..5 {
                let t = Instant::now();
                for &(e, x) in &spairs {
                    let _ = inj.dynamically_reachable(cycle, e, x);
                }
                scalar = scalar.min(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        warm_json.push_str(&format!(",\n  \"warm_alu{n}_scalar_ms\": {scalar:.3}"));
        let mut full_width = f64::INFINITY;
        for tl in [64usize, 256, 512] {
            if tl > n {
                continue;
            }
            let mut batch = f64::INFINITY;
            let mut inj = Injector::new(&f.core.circuit, &f.topo, &f.timing, golden, 500);
            inj.set_timing_lanes(tl);
            let _ = inj.dynamically_reachable_batch(cycle, &spairs);
            for _rep in 0..5 {
                let t = Instant::now();
                let _ = inj.dynamically_reachable_batch(cycle, &spairs);
                batch = batch.min(t.elapsed().as_secs_f64() * 1e3);
            }
            warm_json.push_str(&format!(",\n  \"warm_alu{n}_batch_tl{tl}_ms\": {batch:.3}"));
            if tl == n {
                full_width = batch;
            }
        }
        warm_json.push_str(&format!(
            ",\n  \"warm_alu{n}_batch_speedup\": {:.2}",
            scalar / full_width
        ));
    }
    warm_json.push_str(&structural_json());
    warm_json.push_str(&golden_wave_json());
    let json = format!(
        "{{\n  \"bench\": \"step1_{}_alu_edges_over_{}_cycles\",\n  \"delta_ms\": {:.3},\n  \"sim_delta_ms\": {:.3},\n  \"full_event_ms\": {:.3},\n  \"speedup\": {:.2},\n  \"golden_waveform_builds\": {},\n  \"batch_ms\": {:.3},\n  \"batch_speedup_vs_delta\": {:.2},\n  \"timing_lane_utilization\": {:.3}{}\n}}\n",
        edges.len(),
        golden.sampled_cycles.len(),
        best[0],
        best[3],
        best[1],
        best[1] / best[3],
        builds,
        best[2],
        best[0] / best[2],
        util,
        warm_json
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_timing.json");
    std::fs::write(path, json).expect("write BENCH_timing.json");
}

/// Cold builds of the campaign's structural tables on both core variants,
/// best of three: the downstream-slack table (the first query on a freshly
/// analysed model) and the collapse plan (over the already built table),
/// plus the table's deterministic pair count.
fn structural_json() -> String {
    use std::time::Instant;
    let mut json = String::new();
    let ecc = CoreConfig {
        ecc_regfile: true,
        ..CoreConfig::default()
    };
    for (label, config) in [("plain", CoreConfig::default()), ("ecc", ecc)] {
        let core = build_core(config);
        let c = &core.circuit;
        let topo = Topology::new(c);
        let lib = TechLibrary::nangate45_like();
        let (mut table_ms, mut plan_ms, mut pairs) = (f64::INFINITY, f64::INFINITY, 0);
        for _rep in 0..3 {
            let timing = TimingModel::analyze(c, &topo, &lib);
            let t = Instant::now();
            pairs = std::hint::black_box(timing.slack_table_pairs(c, &topo));
            table_ms = table_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            std::hint::black_box(CollapsePlan::build(c, &topo, &timing));
            plan_ms = plan_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }
        json.push_str(&format!(
            ",\n  \"{label}_slack_table_build_ms\": {table_ms:.3},\n  \"{label}_collapse_plan_build_ms\": {plan_ms:.3},\n  \"{label}_slack_table_entries\": {pairs}"
        ));
    }
    json
}

/// Golden-waveform builds on both core variants: milliseconds per
/// [`GoldenWave`] build at 16 evenly spaced cycles of the paper-scale md5
/// run, best of three passes (each pass rebuilds every cycle).
fn golden_wave_json() -> String {
    use std::time::Instant;
    let mut json = String::new();
    let program = Kernel::Md5
        .build(Scale::Paper)
        .assemble()
        .expect("assembles");
    for (label, ecc_regfile) in [("plain", false), ("ecc", true)] {
        let core = build_core(CoreConfig {
            ecc_regfile,
            ..CoreConfig::default()
        });
        let c = &core.circuit;
        let topo = Topology::new(c);
        let timing = TimingModel::analyze(c, &topo, &TechLibrary::nangate45_like());
        let mut env = MemEnv::new(c, DEFAULT_RAM_BYTES, &program);
        let trace = GoldenTrace::record(c, &topo, &mut env, 100_000);
        let nd = c.num_dffs();
        let step = (trace.num_cycles() / 17).max(1);
        let contexts: Vec<_> = (1..=16)
            .map(|i| i * step)
            .filter(|&cycle| cycle < trace.num_cycles())
            .map(|cycle| {
                let prev = trace.state_bits_at(cycle - 1, nd);
                let prev_values = settle(c, &topo, &prev, trace.inputs_at(cycle - 1));
                (cycle, prev_values, trace.state_bits_at(cycle, nd))
            })
            .collect();
        let mut gold = GoldenWave::new(c, &topo, &timing);
        let mut best = f64::INFINITY;
        for rep in 0..3u64 {
            let t = Instant::now();
            for (cycle, prev_values, state) in &contexts {
                gold.ensure(
                    cycle * 2 + (rep & 1),
                    prev_values,
                    state,
                    trace.inputs_at(*cycle),
                );
            }
            best = best.min(t.elapsed().as_secs_f64() * 1e3 / contexts.len() as f64);
        }
        json.push_str(&format!(",\n  \"{label}_golden_wave_build_ms\": {best:.3}"));
    }
    json
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_build_and_sta, bench_cycle_sim, bench_event_sim, bench_static_reach,
        bench_injection, bench_early_exit_ablation, bench_replay_ablation,
        bench_batch_ablation, bench_delta_timing_ablation, bench_timing_batch_ablation
}
criterion_main!(benches);
