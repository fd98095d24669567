//! Lane-packing primitives shared by the bit-parallel engines.
//!
//! [`crate::BatchSim`] (timing-agnostic replay) and
//! [`crate::BatchDeltaSim`] (timing-aware delta replay) both carry one bit
//! per fault scenario — a *lane* — inside machine words and evaluate the
//! 9-kind cell set with bitwise ops. This module holds the word-level
//! helpers they share:
//!
//! * [`broadcast`] / [`packed_bit`] — `u64` bit helpers;
//! * [`eval_lanes`] — one gate on lane words of any width, for the sparse
//!   cone sweeps that visit single gates (dense settles run
//!   [`EvalPlan::settle`](delayavf_netlist::EvalPlan::settle), which needs
//!   only the bitwise operators a [`LaneWord`] has);
//! * [`LaneWord`] — the abstraction over lane-carrier words, implemented
//!   for `u64` (64 lanes) and the wide words [`W256`] (4×`u64`, 256 lanes)
//!   and [`W512`] (8×`u64`, 512 lanes), so both batch engines widen past
//!   64 lanes without a second copy of the propagation code.
//!
//! The wide carriers are deliberately plain arrays of `u64` with
//! word-parallel loops rather than `std::simd` or target intrinsics: the
//! fixed-count limb loops vectorize on any release build, the crate keeps
//! `#![forbid(unsafe_code)]`, and the code compiles on the stable
//! toolchain with no feature gates or target dispatch (see DESIGN.md).
//!
//! Every operation is lane-independent: bit `L` of any result depends only
//! on bit `L` of the operands, which is what makes a packed simulation an
//! exact simultaneous run of all its lanes.

use delayavf_netlist::GateKind;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// Broadcasts one golden bit across all 64 lanes of a `u64`.
#[inline(always)]
pub(crate) fn broadcast(bit: bool) -> u64 {
    if bit {
        !0
    } else {
        0
    }
}

/// Reads bit `i` of a packed (LSB-first) word slice.
#[inline(always)]
pub(crate) fn packed_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Evaluates one gate on lane-packed words of any [`LaneWord`] width.
/// Semantics match [`GateKind::eval`] lane for lane; unused operands of
/// lower-arity kinds are ignored.
#[inline(always)]
pub fn eval_lanes<W: LaneWord>(kind: GateKind, a: W, b: W, c: W) -> W {
    match kind {
        GateKind::Buf => a,
        GateKind::Not => !a,
        GateKind::And2 => a & b,
        GateKind::Or2 => a | b,
        GateKind::Nand2 => !(a & b),
        GateKind::Nor2 => !(a | b),
        GateKind::Xor2 => a ^ b,
        GateKind::Xnor2 => !(a ^ b),
        // `b ^ (s & (b ^ c))` is the 3-op mux: s=0 -> b, s=1 -> c.
        GateKind::Mux2 => b ^ (a & (b ^ c)),
    }
}

/// A lane-carrier word: one bit per packed fault scenario.
///
/// The contract every implementation upholds — and the packed engines rely
/// on — is lane independence: for all operations, bit `L` of the result is
/// the scalar operation applied to bit `L` of the operands.
pub trait LaneWord:
    Copy
    + Eq
    + std::fmt::Debug
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
{
    /// Number of lanes this word carries.
    const LANES: usize;
    /// The all-zero word.
    const ZERO: Self;
    /// The all-one word (every lane set).
    const ONES: Self;

    /// Broadcasts one bit to every lane.
    fn splat(bit: bool) -> Self;
    /// The single-lane mask with only bit `lane` set.
    fn lane_mask(lane: usize) -> Self;
    /// The mask with the first `n` lanes set (`n` clamped to
    /// [`LaneWord::LANES`]) — the carve shape of a partially-filled final
    /// batch.
    fn prefix(n: usize) -> Self;
    /// Reads the bit of `lane`.
    fn get(self, lane: usize) -> bool;
    /// True when any lane is set.
    fn any(self) -> bool;
    /// Number of set lanes (popcount).
    fn count_ones(self) -> u32;
    /// Calls `f(lane)` for every set lane below `limit`, in ascending lane
    /// order. Cost is proportional to the number of set lanes, not the
    /// word width — the primitive behind word-parallel mismatch
    /// extraction.
    fn for_each_set(self, limit: usize, f: impl FnMut(usize));
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const ZERO: Self = 0;
    const ONES: Self = !0;

    #[inline(always)]
    fn splat(bit: bool) -> Self {
        broadcast(bit)
    }

    #[inline(always)]
    fn lane_mask(lane: usize) -> Self {
        debug_assert!(lane < 64);
        1u64 << lane
    }

    #[inline(always)]
    fn prefix(n: usize) -> Self {
        if n >= 64 {
            !0
        } else {
            (1u64 << n) - 1
        }
    }

    #[inline(always)]
    fn get(self, lane: usize) -> bool {
        (self >> lane) & 1 == 1
    }

    #[inline(always)]
    fn any(self) -> bool {
        self != 0
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }

    #[inline(always)]
    fn for_each_set(self, limit: usize, mut f: impl FnMut(usize)) {
        let mut w = self & Self::prefix(limit);
        while w != 0 {
            let lane = w.trailing_zeros() as usize;
            f(lane);
            w &= w - 1;
        }
    }
}

/// A wide lane-carrier word of `N`×64 lanes: lane `L` lives in bit
/// `L % 64` of limb `L / 64`.
///
/// The limb count is a const generic so the 256- and 512-lane carriers
/// share one implementation; the fixed-trip-count loops compile to
/// straight-line vector code without intrinsics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wide<const N: usize>(pub [u64; N]);

/// A 256-lane wide word (4×`u64`). The batch engines select this carrier
/// for batches of 65–256 scenarios.
pub type W256 = Wide<4>;

/// A 512-lane wide word (8×`u64`). The batch engines select this carrier
/// for batches of 257–512 scenarios.
pub type W512 = Wide<8>;

impl<const N: usize> BitAnd for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitand(self, o: Self) -> Self {
        let mut r = self.0;
        for (limb, &w) in r.iter_mut().zip(o.0.iter()) {
            *limb &= w;
        }
        Wide(r)
    }
}

impl<const N: usize> BitOr for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitor(self, o: Self) -> Self {
        let mut r = self.0;
        for (limb, &w) in r.iter_mut().zip(o.0.iter()) {
            *limb |= w;
        }
        Wide(r)
    }
}

impl<const N: usize> BitXor for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn bitxor(self, o: Self) -> Self {
        let mut r = self.0;
        for (limb, &w) in r.iter_mut().zip(o.0.iter()) {
            *limb ^= w;
        }
        Wide(r)
    }
}

impl<const N: usize> Not for Wide<N> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        let mut r = self.0;
        for limb in &mut r {
            *limb = !*limb;
        }
        Wide(r)
    }
}

impl<const N: usize> LaneWord for Wide<N> {
    const LANES: usize = N * 64;
    const ZERO: Self = Wide([0; N]);
    const ONES: Self = Wide([!0; N]);

    #[inline(always)]
    fn splat(bit: bool) -> Self {
        Wide([broadcast(bit); N])
    }

    #[inline(always)]
    fn lane_mask(lane: usize) -> Self {
        debug_assert!(lane < Self::LANES);
        let mut limbs = [0u64; N];
        limbs[lane / 64] = 1u64 << (lane % 64);
        Wide(limbs)
    }

    #[inline(always)]
    fn prefix(n: usize) -> Self {
        let mut limbs = [0u64; N];
        for (limb, slot) in limbs.iter_mut().enumerate() {
            let base = limb * 64;
            if n > base {
                *slot = u64::prefix(n - base);
            }
        }
        Wide(limbs)
    }

    #[inline(always)]
    fn get(self, lane: usize) -> bool {
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    #[inline(always)]
    fn any(self) -> bool {
        let mut acc = 0u64;
        for limb in self.0 {
            acc |= limb;
        }
        acc != 0
    }

    #[inline(always)]
    fn count_ones(self) -> u32 {
        let mut n = 0u32;
        for limb in self.0 {
            n += limb.count_ones();
        }
        n
    }

    #[inline(always)]
    fn for_each_set(self, limit: usize, mut f: impl FnMut(usize)) {
        for (limb, &bits) in self.0.iter().enumerate() {
            let base = limb * 64;
            if base >= limit {
                break;
            }
            bits.for_each_set(limit - base, |lane| f(base + lane));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_laneword<W: LaneWord>() {
        assert!(!W::ZERO.any());
        assert!(W::ONES.any());
        assert_eq!(W::splat(false), W::ZERO);
        assert_eq!(W::splat(true), W::ONES);
        assert_eq!(W::ZERO.count_ones(), 0);
        assert_eq!(W::ONES.count_ones() as usize, W::LANES);
        for lane in [0, 1, W::LANES / 2, W::LANES - 1] {
            let m = W::lane_mask(lane);
            assert!(m.any());
            assert!(m.get(lane));
            assert_eq!(m.count_ones(), 1);
            assert!(!(m ^ std::hint::black_box(m)).any());
            assert!((!m).get((lane + 1) % W::LANES));
            for other in [0, W::LANES - 1] {
                if other != lane {
                    assert!(!m.get(other), "lane {lane} mask leaks into {other}");
                }
            }
        }
        for n in [0, 1, 63, 64, 65, W::LANES / 2, W::LANES - 1, W::LANES] {
            let p = W::prefix(n);
            assert_eq!(p.count_ones() as usize, n.min(W::LANES), "prefix({n})");
            if n > 0 && n <= W::LANES {
                assert!(p.get(n - 1));
            }
            if n < W::LANES {
                assert!(!p.get(n), "prefix({n}) leaks past its length");
            }
        }
        assert_eq!(W::prefix(W::LANES + 7), W::ONES, "prefix clamps");
    }

    #[test]
    fn lane_words_are_lane_independent_masks() {
        check_laneword::<u64>();
        check_laneword::<W256>();
        check_laneword::<W512>();
    }

    fn check_for_each_set<W: LaneWord>() {
        let lanes = [0, 1, W::LANES / 2, W::LANES - 1];
        let mut w = W::ZERO;
        for &l in &lanes {
            w = w | W::lane_mask(l);
        }
        let mut seen = Vec::new();
        w.for_each_set(W::LANES, |l| seen.push(l));
        assert_eq!(seen, lanes, "ascending order, every set lane");
        // The limit truncates without shifting lane numbering.
        let mut seen = Vec::new();
        w.for_each_set(W::LANES / 2, |l| seen.push(l));
        assert_eq!(seen, [0, 1], "lanes at or past the limit are skipped");
        let mut count = 0;
        W::ONES.for_each_set(7, |_| count += 1);
        assert_eq!(count, 7);
        W::ZERO.for_each_set(W::LANES, |_| panic!("no set lanes"));
    }

    #[test]
    fn set_lane_iteration_is_ordered_and_bounded() {
        check_for_each_set::<u64>();
        check_for_each_set::<W256>();
        check_for_each_set::<W512>();
    }

    #[test]
    fn wide_eval_matches_scalar_eval_per_lane() {
        use delayavf_netlist::GateKind::*;
        for kind in [Buf, Not, And2, Or2, Nand2, Nor2, Xor2, Xnor2, Mux2] {
            for bits in 0u32..8 {
                let (a, b, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
                let want = kind.eval(&[a, b, c][..kind.arity()]);
                let lane = 137; // an arbitrary lane in limb 2
                let w = eval_lanes::<W256>(kind, W256::splat(a), W256::splat(b), W256::splat(c));
                assert_eq!(w.get(lane), want, "{kind:?} on {bits:03b}");
                let wide = 431; // an arbitrary lane in limb 6
                let v = eval_lanes::<W512>(kind, W512::splat(a), W512::splat(b), W512::splat(c));
                assert_eq!(v.get(wide), want, "{kind:?} 512-wide on {bits:03b}");
                let n = eval_lanes::<u64>(kind, broadcast(a), broadcast(b), broadcast(c));
                assert_eq!(n & 1 == 1, want, "{kind:?} narrow on {bits:03b}");
            }
        }
    }
}
