//! Serial replica of the uniform campaigns' unit loop, driven through the
//! public `Injector` methods with a span around every call.
//!
//! The campaign functions shard cycles across workers and merge per-shard
//! tallies; every counter is partition-independent, so one injector walking
//! all cycles in order must reproduce the campaign's rows and merged
//! counters exactly. The traced run checks that, and reads the per-layer
//! self times and counter deltas off the spans.

use delayavf::{valid_cycles, DelayAvfResult, FailureClass, Injector, OraceStats, SavfResult};
use delayavf_netlist::EdgeId;
use delayavf_timing::Picos;

use crate::trace::Tracer;
use crate::workload::{Campaign, Output, Prepared, Work};

/// What the replica of one campaign produced.
pub struct Replica {
    /// The report, to compare with the campaign call's.
    pub output: Output,
    /// The injector's counters, to compare with the campaign call's.
    pub stats: delayavf::InjectorStats,
    /// Wall seconds of each cycle unit, in cycle order.
    pub unit_s: Vec<f64>,
    /// `(edge, extra)` pairs handed to the timing step.
    pub timing_pairs: u64,
}

/// Runs `f` on the injector inside a span that records its counter delta.
fn call<'g, T>(
    tr: &mut Tracer,
    name: &'static str,
    inj: &mut Injector<'g, delayavf_rvcore::MemEnv>,
    f: impl FnOnce(&mut Injector<'g, delayavf_rvcore::MemEnv>) -> T,
) -> T {
    let id = tr.begin(name);
    let before = inj.stats;
    let out = f(inj);
    tr.end(id, inj.stats.delta_since(&before));
    out
}

/// Replays `c` serially under `tr`.
pub fn run(p: &Prepared, c: &Campaign, tr: &mut Tracer) -> Replica {
    let m = &p.models[c.model];
    let due_slack = match &c.work {
        Work::Sweep { config, .. } => config.due_slack,
        Work::Savf { opts, .. } => opts.due_slack,
    };
    let mut inj = Injector::new(&m.core.circuit, &m.topo, &m.timing, &c.golden, due_slack);
    let mut unit_s = Vec::new();
    let mut timing_pairs = 0;
    let output = match &c.work {
        Work::Sweep { edges, config } => {
            let mut rows: Vec<DelayAvfResult> = config
                .delay_fractions
                .iter()
                .map(|&fraction| DelayAvfResult {
                    delay_fraction: fraction,
                    orace: config.compute_orace.then(OraceStats::default),
                    ..DelayAvfResult::default()
                })
                .collect();
            let period = m.timing.clock_period() as f64;
            for cycle in valid_cycles(&c.golden) {
                let unit = tr.begin("campaign.unit");
                let t0 = std::time::Instant::now();
                call(tr, "injector.warm", &mut inj, |i| i.warm_cycle_data(cycle));
                if !edges.is_empty() {
                    let pairs: Vec<(EdgeId, Picos)> = config
                        .delay_fractions
                        .iter()
                        .flat_map(|&f| {
                            let extra = (period * f).round() as Picos;
                            edges.iter().map(move |&e| (e, extra))
                        })
                        .collect();
                    timing_pairs += pairs.len() as u64;
                    let mut parts = call(tr, "injector.timing_step", &mut inj, |i| {
                        i.dynamically_reachable_batch(cycle, &pairs)
                    });
                    for (row, parts) in rows.iter_mut().zip(parts.chunks_mut(edges.len())) {
                        call(tr, "injector.replay", &mut inj, |i| {
                            i.prefill_failures(cycle + 1, parts.iter().map(|(_, s)| s.clone()));
                            if config.compute_orace {
                                i.prefill_failures(
                                    cycle + 1,
                                    parts.iter().flat_map(|(_, s)| s.iter().map(|&d| vec![d])),
                                );
                            }
                        });
                        call(tr, "injector.classify", &mut inj, |i| {
                            for (reach, set) in parts.iter_mut() {
                                let outcome =
                                    i.classify_injection(cycle, *reach, std::mem::take(set));
                                tally(row, &outcome);
                                if config.compute_orace && !outcome.dynamic_set.is_empty() {
                                    let or = i.or_ace(cycle + 1, &outcome.dynamic_set);
                                    let o = row.orace.as_mut().expect("orace rows");
                                    o.or_hits += usize::from(or);
                                    o.interference += usize::from(or && !outcome.visible);
                                    o.compounding += usize::from(!or && outcome.visible);
                                }
                            }
                        });
                    }
                }
                unit_s.push(t0.elapsed().as_secs_f64());
                tr.end(unit, delayavf::InjectorStats::default());
            }
            Output::Sweep(rows)
        }
        Work::Savf { dffs, .. } => {
            let mut result = SavfResult::default();
            for cycle in valid_cycles(&c.golden) {
                let unit = tr.begin("campaign.unit");
                let t0 = std::time::Instant::now();
                call(tr, "injector.replay", &mut inj, |i| {
                    i.prefill_failures(cycle, dffs.iter().map(|&d| vec![d]));
                });
                call(tr, "injector.classify", &mut inj, |i| {
                    for &dff in dffs {
                        result.injections += 1;
                        result.ace_hits += usize::from(i.bit_ace(cycle, dff));
                    }
                });
                unit_s.push(t0.elapsed().as_secs_f64());
                tr.end(unit, delayavf::InjectorStats::default());
            }
            Output::Savf(result)
        }
    };
    Replica {
        output,
        stats: inj.stats,
        unit_s,
        timing_pairs,
    }
}

/// Folds one injection outcome into its row, as the campaign does.
fn tally(row: &mut DelayAvfResult, outcome: &delayavf::InjectionOutcome) {
    row.injections += 1;
    row.static_hits += usize::from(outcome.statically_reachable > 0);
    if !outcome.dynamic_set.is_empty() {
        row.dynamic_hits += 1;
        row.multi_bit_hits += usize::from(outcome.is_multi_bit());
    }
    if outcome.visible {
        row.delay_ace_hits += 1;
        match outcome.class {
            FailureClass::Sdc => row.sdc_hits += 1,
            FailureClass::Due => row.due_hits += 1,
            FailureClass::Masked => unreachable!("a visible outcome is not masked"),
        }
    }
}

/// Slowest contiguous shard over the mean shard, splitting the units the
/// way the campaign engine does (`div_ceil` chunks over `workers`).
pub fn shard_skew(unit_s: &[f64], workers: usize) -> (f64, f64) {
    if unit_s.is_empty() {
        return (0.0, 0.0);
    }
    let len = unit_s.len().div_ceil(workers.clamp(1, unit_s.len()));
    let shards: Vec<f64> = unit_s.chunks(len).map(|c| c.iter().sum()).collect();
    let slowest = shards.iter().copied().fold(0.0, f64::max);
    let mean = shards.iter().sum::<f64>() / shards.len() as f64;
    (slowest, mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_skew_uses_contiguous_div_ceil_shards() {
        // 5 units over 2 workers: shards [0..3) and [3..5).
        let (slowest, mean) = shard_skew(&[1.0, 1.0, 1.0, 4.0, 4.0], 2);
        assert_eq!(slowest, 8.0);
        assert_eq!(mean, 5.5);
        assert_eq!(shard_skew(&[2.0], 2), (2.0, 2.0));
        assert_eq!(shard_skew(&[], 2), (0.0, 0.0));
    }
}
