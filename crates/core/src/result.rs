//! Result records produced by the campaigns.

use std::fmt;

/// ORACE approximation statistics for one delay duration (Table III
/// ingredients).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OraceStats {
    /// Injections whose dynamic set is ORACE (≥1 individually-ACE member).
    pub or_hits: usize,
    /// ACE interference events: the set is ORACE but **not** GroupACE
    /// (individually-ACE errors cancel at the group level).
    pub interference: usize,
    /// ACE compounding events: the set is GroupACE but **not** ORACE
    /// (no member is individually ACE, together they fail).
    pub compounding: usize,
}

impl OraceStats {
    /// Adds another unit's counters into this one (the campaign
    /// engine's deterministic merge — pure integer addition).
    pub fn merge(&mut self, other: &OraceStats) {
        self.or_hits += other.or_hits;
        self.interference += other.interference;
        self.compounding += other.compounding;
    }
}

/// The stratified estimate an adaptive-sampling sweep attaches to its
/// result row: the Neyman-weighted DelayAVF point with its composed
/// per-stratum Wilson interval, plus the sampling spend that produced it.
/// `None` on the uniform (exhaustive-over-the-sample) path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveEstimate {
    /// Stratum-weighted point estimate (Σ W_h · p̂_h).
    pub point: f64,
    /// Lower end of the composed 95% interval.
    pub lo: f64,
    /// Upper end of the composed 95% interval.
    pub hi: f64,
    /// Total injection sites in the stratified population.
    pub population: usize,
    /// Sites actually simulated before every stratum retired.
    pub sampled: usize,
}

impl AdaptiveEstimate {
    /// Achieved half-width of the composed interval.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// One row of a DelayAVF sweep: all counters for a (structure, benchmark,
/// delay duration) cell.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DelayAvfResult {
    /// The delay duration as a fraction of the clock period (the paper's
    /// *d*).
    pub delay_fraction: f64,
    /// Total (edge, cycle) injections evaluated.
    pub injections: usize,
    /// Injections with ≥1 statically reachable state element ("Static
    /// Reach" in Fig. 8).
    pub static_hits: usize,
    /// Injections with ≥1 state-element error ("Dynamic Reach" in Fig. 8).
    pub dynamic_hits: usize,
    /// Injections that are DelayACE ("GroupACE" in Fig. 8; the DelayAVF
    /// numerator; always `sdc_hits + due_hits`).
    pub delay_ace_hits: usize,
    /// DelayACE injections classified as silent data corruption.
    pub sdc_hits: usize,
    /// DelayACE injections classified as detected unrecoverable errors
    /// (crash, trap or hang).
    pub due_hits: usize,
    /// Injections whose dynamic set holds ≥2 simultaneous errors.
    pub multi_bit_hits: usize,
    /// ORACE statistics, when the campaign computed them.
    pub orace: Option<OraceStats>,
    /// The stratified estimate, when the adaptive sampler produced this
    /// row. Attached once, after the unit merge — per-unit rows carry
    /// `None`.
    pub adaptive: Option<AdaptiveEstimate>,
}

impl DelayAvfResult {
    /// Adds another unit's counters into this one. Both rows must describe
    /// the same delay fraction and agree on whether ORACE was computed —
    /// the campaign engine guarantees both by construction.
    pub fn merge(&mut self, other: &DelayAvfResult) {
        debug_assert_eq!(self.delay_fraction, other.delay_fraction);
        self.injections += other.injections;
        self.static_hits += other.static_hits;
        self.dynamic_hits += other.dynamic_hits;
        self.delay_ace_hits += other.delay_ace_hits;
        self.sdc_hits += other.sdc_hits;
        self.due_hits += other.due_hits;
        self.multi_bit_hits += other.multi_bit_hits;
        match (&mut self.orace, &other.orace) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, None) => {}
            _ => panic!("cannot merge DelayAvfResult rows with mismatched ORACE presence"),
        }
        debug_assert!(
            self.adaptive.is_none() && other.adaptive.is_none(),
            "adaptive estimates are attached after the unit merge"
        );
    }

    /// DelayAVF (Equation 3): DelayACE hits over injections.
    pub fn delay_avf(&self) -> f64 {
        ratio(self.delay_ace_hits, self.injections)
    }

    /// 95% Wilson confidence interval for the sampled DelayAVF.
    pub fn delay_avf_interval(&self) -> (f64, f64) {
        crate::report::wilson_interval(self.delay_ace_hits, self.injections)
    }

    /// Fraction of injections with at least one statically reachable state
    /// element.
    pub fn static_fraction(&self) -> f64 {
        ratio(self.static_hits, self.injections)
    }

    /// Fraction of injections with at least one state-element error.
    pub fn dynamic_fraction(&self) -> f64 {
        ratio(self.dynamic_hits, self.injections)
    }

    /// Fraction of error-producing injections whose error is multi-bit.
    pub fn multi_bit_fraction(&self) -> f64 {
        ratio(self.multi_bit_hits, self.dynamic_hits)
    }

    /// OrDelayAVF (Definition 6): the ORACE-based approximation of
    /// DelayAVF. `None` when ORACE was not computed.
    pub fn or_delay_avf(&self) -> Option<f64> {
        self.orace.map(|o| ratio(o.or_hits, self.injections))
    }

    /// Relative change between DelayAVF and OrDelayAVF (Table III's last
    /// columns), in percent.
    pub fn or_relative_change_pct(&self) -> Option<f64> {
        let or = self.or_delay_avf()?;
        let davf = self.delay_avf();
        if davf == 0.0 {
            return Some(if or == 0.0 { 0.0 } else { 100.0 });
        }
        Some(100.0 * (or - davf).abs() / davf)
    }

    /// ACE interference rate as a percentage of dynamically reachable sets.
    pub fn interference_pct(&self) -> Option<f64> {
        self.orace
            .map(|o| 100.0 * ratio(o.interference, self.dynamic_hits))
    }

    /// ACE compounding rate as a percentage of dynamically reachable sets.
    pub fn compounding_pct(&self) -> Option<f64> {
        self.orace
            .map(|o| 100.0 * ratio(o.compounding, self.dynamic_hits))
    }
}

impl fmt::Display for DelayAvfResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d={:.0}%: DelayAVF={:.4} (static {:.2}, dynamic {:.3}, {} injections)",
            100.0 * self.delay_fraction,
            self.delay_avf(),
            self.static_fraction(),
            self.dynamic_fraction(),
            self.injections
        )
    }
}

/// Result of a particle-strike (sAVF) campaign over a structure's bits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SavfResult {
    /// Total (bit, cycle) strikes evaluated.
    pub injections: usize,
    /// Strikes that were ACE (program-visible).
    pub ace_hits: usize,
}

impl SavfResult {
    /// Adds another unit's counters into this one.
    pub fn merge(&mut self, other: &SavfResult) {
        self.injections += other.injections;
        self.ace_hits += other.ace_hits;
    }

    /// The structure's particle-strike AVF (Equation 1 over the sampled
    /// cycles).
    pub fn savf(&self) -> f64 {
        ratio(self.ace_hits, self.injections)
    }

    /// 95% Wilson confidence interval for the sampled sAVF.
    pub fn savf_interval(&self) -> (f64, f64) {
        crate::report::wilson_interval(self.ace_hits, self.injections)
    }
}

impl fmt::Display for SavfResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sAVF={:.4} ({}/{} strikes)",
            self.savf(),
            self.ace_hits,
            self.injections
        )
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_guard_against_empty_denominators() {
        let r = DelayAvfResult::default();
        assert_eq!(r.delay_avf(), 0.0);
        assert_eq!(r.multi_bit_fraction(), 0.0);
        assert_eq!(SavfResult::default().savf(), 0.0);
    }

    #[test]
    fn orace_derivations() {
        let r = DelayAvfResult {
            delay_fraction: 0.9,
            injections: 100,
            static_hits: 80,
            dynamic_hits: 40,
            delay_ace_hits: 20,
            sdc_hits: 15,
            due_hits: 5,
            multi_bit_hits: 10,
            orace: Some(OraceStats {
                or_hits: 25,
                interference: 8,
                compounding: 3,
            }),
            adaptive: None,
        };
        assert!((r.delay_avf() - 0.2).abs() < 1e-12);
        assert!((r.or_delay_avf().unwrap() - 0.25).abs() < 1e-12);
        assert!((r.or_relative_change_pct().unwrap() - 25.0).abs() < 1e-9);
        assert!((r.interference_pct().unwrap() - 20.0).abs() < 1e-9);
        assert!((r.compounding_pct().unwrap() - 7.5).abs() < 1e-9);
        assert!((r.multi_bit_fraction() - 0.25).abs() < 1e-12);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn intervals_bracket_the_point_estimate() {
        let r = DelayAvfResult {
            injections: 200,
            delay_ace_hits: 10,
            ..DelayAvfResult::default()
        };
        let (lo, hi) = r.delay_avf_interval();
        assert!(lo < r.delay_avf() && r.delay_avf() < hi);
        let s = SavfResult {
            injections: 200,
            ace_hits: 100,
        };
        let (lo, hi) = s.savf_interval();
        assert!(lo < 0.5 && 0.5 < hi);
    }

    #[test]
    fn merge_is_plain_counter_addition() {
        let mut a = DelayAvfResult {
            delay_fraction: 0.5,
            injections: 10,
            static_hits: 8,
            dynamic_hits: 6,
            delay_ace_hits: 4,
            sdc_hits: 3,
            due_hits: 1,
            multi_bit_hits: 2,
            orace: Some(OraceStats {
                or_hits: 5,
                interference: 1,
                compounding: 0,
            }),
            adaptive: None,
        };
        let b = DelayAvfResult {
            delay_fraction: 0.5,
            injections: 7,
            static_hits: 5,
            dynamic_hits: 4,
            delay_ace_hits: 2,
            sdc_hits: 1,
            due_hits: 1,
            multi_bit_hits: 1,
            orace: Some(OraceStats {
                or_hits: 2,
                interference: 0,
                compounding: 1,
            }),
            adaptive: None,
        };
        a.merge(&b);
        assert_eq!(a.injections, 17);
        assert_eq!(a.static_hits, 13);
        assert_eq!(a.dynamic_hits, 10);
        assert_eq!(a.delay_ace_hits, 6);
        assert_eq!(a.sdc_hits, 4);
        assert_eq!(a.due_hits, 2);
        assert_eq!(a.multi_bit_hits, 3);
        assert_eq!(
            a.orace.unwrap(),
            OraceStats {
                or_hits: 7,
                interference: 1,
                compounding: 1
            }
        );

        let mut s = SavfResult {
            injections: 4,
            ace_hits: 2,
        };
        s.merge(&SavfResult {
            injections: 3,
            ace_hits: 3,
        });
        assert_eq!(
            s,
            SavfResult {
                injections: 7,
                ace_hits: 5
            }
        );
    }

    #[test]
    #[should_panic(expected = "mismatched ORACE presence")]
    fn merge_rejects_mismatched_orace() {
        let mut a = DelayAvfResult {
            orace: Some(OraceStats::default()),
            ..DelayAvfResult::default()
        };
        a.merge(&DelayAvfResult::default());
    }

    #[test]
    fn zero_davf_relative_change() {
        let mut r = DelayAvfResult {
            injections: 10,
            orace: Some(OraceStats::default()),
            ..DelayAvfResult::default()
        };
        assert_eq!(r.or_relative_change_pct(), Some(0.0));
        r.orace = Some(OraceStats {
            or_hits: 1,
            ..OraceStats::default()
        });
        assert_eq!(r.or_relative_change_pct(), Some(100.0));
    }
}
