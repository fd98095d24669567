//! Machine-speed reference and the clock that reads it.
//!
//! The benchmark shares a host whose speed drifts by tens of percent from
//! one run to the next, for every thread of the process at once, so
//! medians over one run's passes move with the host. [`Clock`] therefore
//! times a fixed piece of work that does not depend on the repository's
//! code — a bit-parallel evaluation of a random gate graph, the same kind
//! of work as the replay and timing engines — on every campaign worker at
//! once, at most once per [`SPACING`] between the measured calls, and
//! leaves those readings out of the time it measures. The run's time
//! metrics are then scaled by its speed factor, the reference's nominal
//! time over its mean time in the run: a change to the program moves the
//! scaled times, while a change in the host's speed moves the reference
//! too and largely cancels. The scaled times are host seconds at the speed
//! the reference has on an idle 2-vCPU Xeon host ([`NOMINAL_S`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::metrics::cpu_seconds;

/// Words of state in the reference graph (512 KiB): like the engines' lane
/// words, it lives in the L2 and L3 caches rather than L1.
const NODES: usize = 1 << 16;
/// Gates of the reference graph (512 KiB of gate records); gate `i` drives
/// node `i`.
const GATES: usize = 1 << 15;
/// Gate inputs come from the nodes this far before the gate's output, as
/// in a levelised netlist, except that one `b` input in ten comes from
/// anywhere.
const WINDOW: u64 = 2048;
/// Sweeps over the graph per speed reading, after [`WARM_SWEEPS`] that
/// bring the graph back into the caches and are not timed.
const SWEEPS: usize = 160;
/// See [`SWEEPS`].
const WARM_SWEEPS: usize = 4;
/// Seconds the [`SWEEPS`] take on an idle 2-vCPU Xeon host.
pub const NOMINAL_S: f64 = 0.040;
/// Between calls, the clock reads the speed again once this much time has
/// passed since its last reading.
const SPACING: Duration = Duration::from_millis(250);

/// One gate of the reference graph: two inputs, an output and an opcode.
#[derive(Clone, Copy)]
struct Gate {
    a: u32,
    b: u32,
    out: u32,
    op: u32,
}

/// A deterministic random gate graph and its state words.
pub struct Reference {
    gates: Vec<Gate>,
    state: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let state = (0..NODES).map(|_| next()).collect();
        let gates = (0..GATES as u64)
            .map(|out| {
                let r = next();
                let near = |x: u64| ((out + NODES as u64 - 1 - x % WINDOW) % NODES as u64) as u32;
                let far = (r >> 20) % 10 == 0;
                Gate {
                    a: near(r),
                    b: if far {
                        ((r >> 24) % NODES as u64) as u32
                    } else {
                        near(r >> 40)
                    },
                    out: out as u32,
                    op: (r >> 62) as u32,
                }
            })
            .collect();
        Reference { gates, state }
    }
}

impl Reference {
    /// Evaluates the graph `sweeps` times; returns a digest of the state so
    /// the work cannot be optimised away.
    #[inline(never)]
    fn work(&mut self, sweeps: usize) -> u64 {
        let s = &mut self.state;
        for _ in 0..sweeps {
            for g in &self.gates {
                let (a, b) = (s[g.a as usize], s[g.b as usize]);
                let v = match g.op {
                    0 => a & b,
                    1 => a | b,
                    2 => a ^ b,
                    _ => !(a & b),
                };
                s[g.out as usize] = v.rotate_left(1) ^ (v >> 3);
            }
        }
        s.iter().fold(0, |h, &v| h.rotate_left(5) ^ v)
    }

    /// Seconds the reference work takes now.
    fn time(&mut self) -> f64 {
        black_box(self.work(WARM_SWEEPS));
        let t0 = Instant::now();
        black_box(self.work(SWEEPS));
        t0.elapsed().as_secs_f64()
    }
}

/// Seconds the reference work takes now: the mean over `refs`, run on
/// that many threads at once.
fn reference_seconds(refs: &mut [Reference]) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = refs.iter_mut().map(|r| s.spawn(|| r.time())).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference work does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Host seconds accumulated by a [`Clock`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Reading {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds, user + system, all threads.
    pub cpu_s: f64,
}

impl std::ops::Sub for Reading {
    type Output = Reading;
    fn sub(self, o: Reading) -> Reading {
        Reading {
            wall_s: self.wall_s - o.wall_s,
            cpu_s: self.cpu_s - o.cpu_s,
        }
    }
}

/// Wall and CPU time of the measured work, and the host's speed read
/// between its steps; the time spent reading the speed is left out. A
/// disabled clock reads no speed.
pub struct Clock {
    refs: Vec<Reference>,
    /// Wall instant and CPU seconds where the open stretch began.
    mark: Option<(Instant, f64)>,
    /// When the speed was last read.
    last_read: Option<Instant>,
    total: Reading,
    /// Reference seconds of each reading.
    readings: Vec<f64>,
}

impl Clock {
    /// A clock that reads the speed on `workers` threads at once.
    pub fn new(workers: usize) -> Self {
        Clock {
            refs: (0..workers).map(|_| Reference::default()).collect(),
            mark: None,
            last_read: None,
            total: Reading::default(),
            readings: Vec::new(),
        }
    }

    /// A clock that does not read the speed.
    pub fn disabled() -> Self {
        Clock::new(0)
    }

    /// Closes the open stretch, if any, reads the speed if the last
    /// reading is [`SPACING`] old or more, and opens the next stretch.
    /// Returns the time measured so far.
    pub fn lap(&mut self) -> Reading {
        let now = Instant::now();
        let cpu = cpu_seconds();
        if let Some((t0, cpu0)) = self.mark {
            self.total.wall_s += now.duration_since(t0).as_secs_f64();
            self.total.cpu_s += cpu - cpu0;
        }
        let due = self.last_read.is_none_or(|t| t.elapsed() >= SPACING);
        self.mark = Some(if due && !self.refs.is_empty() {
            self.readings.push(reference_seconds(&mut self.refs));
            self.last_read = Some(Instant::now());
            (Instant::now(), cpu_seconds())
        } else {
            (now, cpu)
        });
        self.total
    }

    /// The host-speed factor so far: [`NOMINAL_S`] over the mean reference
    /// time of the readings (below 1 when the host ran slow; 1 if the
    /// speed was never read). The mean, unlike a median, weighs a slow
    /// stretch as much as the measured work felt it.
    pub fn factor(&self) -> f64 {
        if self.readings.is_empty() {
            1.0
        } else {
            NOMINAL_S * self.readings.len() as f64 / self.readings.iter().sum::<f64>()
        }
    }

    /// How many times the speed was read.
    pub fn readings(&self) -> usize {
        self.readings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        assert_eq!(a.work(SWEEPS), b.work(SWEEPS));
    }

    #[test]
    fn a_disabled_clock_reports_host_seconds() {
        let mut c = Clock::disabled();
        c.lap();
        std::thread::sleep(Duration::from_millis(20));
        let r = c.lap();
        assert!(r.wall_s >= 0.02, "{r:?}");
        assert_eq!((c.factor(), c.readings()), (1.0, 0));
    }

    #[test]
    fn the_clock_leaves_its_readings_out() {
        let mut c = Clock::new(2);
        c.lap();
        let r = c.lap();
        // The first lap read the speed, running the reference work on two
        // threads; the stretch after it is empty all the same.
        assert_eq!(c.readings(), 1);
        assert!(r.wall_s < NOMINAL_S, "{r:?}");
        assert!(c.factor() > 0.0 && c.factor().is_finite());
    }
}
