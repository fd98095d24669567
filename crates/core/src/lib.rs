//! **DelayAVF** — architectural vulnerability factors for small delay
//! faults. This crate is the reproduction of the paper's primary
//! contribution (MICRO 2024).
//!
//! A *small delay fault* (SDF) adds a sub-cycle delay `d` to one wire for a
//! single cycle. A wire (here: fanout edge) is **DelayACE** in cycle *i* if
//! such a fault produces a *program-visible failure* (Definition 1); a
//! structure's **DelayAVF** is the fraction of (edge, cycle) pairs that are
//! DelayACE (Equation 3).
//!
//! The computation follows the paper's two-step decomposition (Equation 4):
//!
//! ```text
//! DelayACE_d(e, i) = GroupACE(DynamicReachable_d(e, i), i + 1)
//! ```
//!
//! 1. **Timing-aware step** ([`Injector::dynamically_reachable`]): the
//!    statically reachable set is computed from static timing (Definition
//!    2), cheap pre-filters rule out most injections (no path long enough,
//!    or no toggling source in the fan-in cone — §V-C), and an event-driven
//!    simulation of the single faulty cycle yields the flip-flops that latch
//!    a wrong value (Definition 3).
//! 2. **Timing-agnostic step** ([`Injector::group_ace`]): the wrong values
//!    are injected at the next cycle boundary into a cycle-accurate replay
//!    from a checkpoint; the run early-exits as soon as state and
//!    environment fingerprint re-converge with the golden trace, otherwise
//!    the final program outputs are compared (SDC) or a missing halt is
//!    declared a DUE — both count as program-visible failures.
//!
//! On top of the engine, the crate provides:
//!
//! * [`delay_avf_campaign`] — full sweeps over edges, cycles and delay
//!   fractions producing [`DelayAvfResult`] rows (Figures 7–9),
//! * [`savf_campaign`] — classic single-bit particle-strike AVF on the same
//!   machinery for the sAVF comparison (Figure 10),
//! * ORACE / **OrDelayAVF** (Definitions 5–6) with ACE-interference and
//!   ACE-compounding accounting (Table III),
//! * multi-bit error statistics and per-component breakdowns (Figure 8).
//!
//! Long campaigns additionally get crash-safety and observability: the
//! [`checkpoint`] module snapshots completed work units atomically and
//! resumes them into byte-identical reports, and the [`telemetry`] module
//! streams structured JSONL progress events behind the
//! zero-cost-when-disabled [`TelemetrySink`] trait. Both are wired through
//! the `*_observed` campaign entry points via [`RunContext`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
pub mod checkpoint;
mod collapse;
pub mod fit;
mod golden;
mod injector;
pub mod razor;
mod report;
mod result;
mod sampling;
pub mod telemetry;
#[cfg(test)]
mod testenv;

pub use campaign::{
    delay_avf_campaign, delay_avf_campaign_observed, delay_avf_campaign_records,
    delay_avf_campaign_records_observed, delay_avf_campaign_with_stats, savf_campaign,
    savf_campaign_observed, savf_campaign_with_stats, savf_per_bit_campaign,
    savf_per_bit_campaign_observed, spatial_double_strike_campaign,
    spatial_double_strike_campaign_observed, valid_cycles, CampaignConfig, ReplayOptions,
    RunContext,
};
pub use checkpoint::{CheckpointSpec, CHECKPOINT_FORMAT_VERSION};
pub use collapse::CollapsePlan;
pub use golden::{prepare_golden, prepare_golden_percent, prepare_golden_seeded, GoldenRun};
pub use injector::{FailureClass, InjectionOutcome, Injector, InjectorStats};
pub use report::{
    format_fraction_row, geometric_mean, geometric_mean_floored, render_table, wilson_interval,
    NormalizedSeries,
};
pub use result::{AdaptiveEstimate, DelayAvfResult, OraceStats, SavfResult};
pub use sampling::{
    bucket_axis, compose_intervals, neyman_allocation, percent_to_count, sample_edges,
    spaced_cycles, stratified_cycles, validate_ci_target, validate_strata, AdaptivePlan,
    StratifiedEstimate, DEFAULT_STRATA, MAX_STRATA,
};
pub use telemetry::{
    parse_flat_object, validate_line, JsonValue, JsonlTelemetry, NullTelemetry, PhaseTotals,
    TelemetryEvent, TelemetrySink, NULL_TELEMETRY, TELEMETRY_SCHEMA_VERSION,
};
