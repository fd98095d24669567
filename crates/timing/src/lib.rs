//! Timing substrate for the DelayAVF reproduction: technology library,
//! static timing analysis (STA), path-length distributions, and the
//! *statically reachable set* computation of the paper's Definition 2.
//!
//! The paper's flow consumes gate-level timing from a synthesized netlist and
//! the NanGate 45nm open cell library. This crate plays that role for
//! circuits built with [`delayavf_netlist`]:
//!
//! * [`TechLibrary`] assigns each gate kind an intrinsic delay and a
//!   load-dependent term, plus flip-flop clock-to-Q and setup times. The
//!   [`TechLibrary::nangate45_like`] preset models the relative delays of
//!   the NanGate 45nm typical corner.
//! * [`TimingModel`] runs STA over a circuit: per-edge propagation delays,
//!   per-net latest arrival times, downstream max-path times, and the
//!   design's critical path (which sets the clock period, exactly as in the
//!   paper's §VI-A).
//! * [`TimingModel::statically_reachable`] answers the paper's Definition 2:
//!   which flip-flops terminate a path through a given fanout edge whose
//!   length, after adding an extra small delay *d*, exceeds the clock period.
//! * [`PathHistogram`] reproduces the per-structure path-length
//!   distributions of the paper's Figure 6.
//!
//! All times are integer **picoseconds** ([`Picos`]), making the analysis
//! exact and platform-independent.
//!
//! # Example
//!
//! ```
//! use delayavf_netlist::{CircuitBuilder, Topology};
//! use delayavf_timing::{TechLibrary, TimingModel};
//!
//! let mut b = CircuitBuilder::new();
//! let a = b.input("a");
//! let r = b.reg("r", false);
//! let x = b.xor(a, r.q());
//! b.drive(r, x);
//! b.output("q", r.q());
//! let c = b.finish()?;
//! let topo = Topology::new(&c);
//! let timing = TimingModel::analyze(&c, &topo, &TechLibrary::nangate45_like());
//! assert!(timing.clock_period() > 0);
//! # Ok::<(), delayavf_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod model;
mod paths;
mod techlib;

pub use model::{EdgeSlack, TimingModel};
pub use paths::PathHistogram;
pub use techlib::{CellTiming, TechLibrary};

/// Time in integer picoseconds.
///
/// All delays, arrival times and clock periods in this crate are expressed
/// in this unit.
pub type Picos = u64;
