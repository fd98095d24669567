//! Simulators for [`delayavf_netlist`] circuits.
//!
//! Two complementary engines implement the paper's two-step methodology
//! (§V-B):
//!
//! * [`CycleSim`] — a **timing-agnostic**, cycle-accurate simulator
//!   (the role Verilator plays in the paper's artifact). It settles the
//!   combinational logic once per cycle in topological order, supports
//!   state-element error injection at cycle boundaries, per-cycle state
//!   hashing for early convergence detection, and checkpoint/restore.
//!   It records the [`GoldenTrace`] and is the plain reference the replay
//!   engine below is checked against.
//! * [`EventSim`] — a **timing-aware**, event-driven simulator for a single
//!   clock cycle with per-edge transport delays from a
//!   [`delayavf_timing::TimingModel`]. A small delay fault is injected as an
//!   extra delay on one fanout edge; the values latched at the clock edge
//!   (honoring setup time) determine the *dynamically reachable set*.
//! * [`BatchSim`] — the **bit-parallel** replay engine (parallel-pattern
//!   single-fault propagation) that classifies every GroupACE and strike
//!   replay: up to [`MAX_LANES`] independent fault scenarios packed into
//!   the bit lanes of lane-carrier words and stepped together, cycle by
//!   cycle, against the shared golden trace. While a lane's state diverges
//!   from the trace only a little, a divergence-cone worklist re-evaluates
//!   just the dirty fan-out cone (concurrent fault simulation); otherwise a
//!   straight-line sweep evaluates every gate. Lanes whose outputs diverge
//!   receive input words from their own environments, and lanes that
//!   outlive the trace keep stepping densely from their materialized state,
//!   so one batch carries each scenario until it is classified.
//! * [`DeltaEventSim`] — an **incremental** variant of the timing-aware
//!   engine: each trace cycle's fault-free timed waveform is simulated once
//!   into a [`GoldenWave`] of per-net transition lists, and every faulty
//!   injection at that cycle is evaluated as a delta seeded at the struck
//!   edge's sink, propagating only where the faulty waveform diverges from
//!   golden and pruning gates whose output waveform reconverges.
//! * [`BatchDeltaSim`] — the **lane-packed** timing-aware engine: up to
//!   [`MAX_TIMING_LANES`] `(edge, extra)` scenarios at one trace cycle are
//!   propagated together over packed word transition lists against the same
//!   [`GoldenWave`], with a per-lane divergence frontier,
//!   independent lane early-exit, and retirement of unbatchable lanes to
//!   the scalar engine.
//!
//! Circuits interact with the outside world through an [`Environment`]
//! (memories, MMIO consoles, ...). The environment exchanges whole port
//! words with the simulator once per cycle; within a cycle the circuit is
//! closed, which is what makes the paper's decomposition exact for cores
//! whose outputs are registered.
//!
//! [`GoldenTrace`] records a fault-free reference execution: per-cycle
//! packed architectural state, port activity, and environment fingerprints.
//! Fault campaigns replay from [`Checkpoint`]s against this trace, which
//! the trace derives by stepping the environment alone along its recorded
//! port words ([`GoldenTrace::checkpoints`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod batch_delta;
mod cycle;
mod delta;
mod env;
mod event;
mod pack;
pub mod testutil;
mod trace;
mod vcd;

pub use batch::{BatchSim, LaneMask, MAX_LANES};
pub use batch_delta::{BatchDeltaOutcome, BatchDeltaSim, MAX_TIMING_LANES};
pub use cycle::{settle, CycleSim, RunSummary, StopReason};
pub use delta::{DeltaEventSim, DeltaOutcome, GoldenWave};
pub use env::{ConstEnvironment, Environment};
pub use event::{EventSim, FaultSpec};
pub use pack::{eval_lanes, LaneWord, Wide, W256, W512};
pub use trace::{pack_bits, Checkpoint, GoldenTrace};
pub use vcd::VcdWriter;
