//! Temporal and spatial sampling (§V-C "the simplest way to reduce the
//! total number of simulations is to employ temporal sampling").

use delayavf_netlist::EdgeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Picks `count` injection cycles equally spaced through `1..num_cycles`
/// (cycle 0 is skipped: there is no previous settled cycle to launch the
/// timing-aware simulation from). This mirrors the paper's "injection
/// points chosen to be equally spaced out throughout the whole program
/// execution".
///
/// Returns fewer cycles when the program is shorter than `count`.
pub fn spaced_cycles(num_cycles: u64, count: usize) -> Vec<u64> {
    if num_cycles < 2 || count == 0 {
        return Vec::new();
    }
    let lo = 1u64;
    let hi = num_cycles - 1; // last cycle with a next-cycle boundary
    let span = hi - lo;
    let count = count.min(span as usize + 1);
    if count == 1 {
        return vec![lo];
    }
    let mut out: Vec<u64> = (0..count)
        .map(|k| lo + (span * k as u64) / (count as u64 - 1))
        .collect();
    out.dedup();
    out
}

/// Picks `count` injection cycles with **stratified random** sampling: the
/// run is divided into `count` equal strata and one cycle is drawn uniformly
/// from each. This keeps the even temporal coverage of the paper's
/// equally-spaced injection points while avoiding aliasing with the core's
/// periodic fetch/execute cadence (a fixed stride can systematically land on
/// the same pipeline state).
pub fn stratified_cycles(num_cycles: u64, count: usize, seed: u64) -> Vec<u64> {
    use rand::Rng;
    if num_cycles < 2 || count == 0 {
        return Vec::new();
    }
    let lo = 1u64;
    let hi = num_cycles - 1;
    let span = hi - lo + 1;
    let count = count.min(span as usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for k in 0..count as u64 {
        let s_lo = lo + span * k / count as u64;
        let s_hi = lo + span * (k + 1) / count as u64;
        out.push(rng.gen_range(s_lo..s_hi.max(s_lo + 1)));
    }
    out.dedup();
    out
}

/// Derives the sample count from a sampling percentage, as the paper
/// configures it (`percent_sampled_cycles_delay`).
///
/// The result is clamped to at least one cycle, which also absorbs
/// degenerate rates (negative, zero, NaN) into a count of 1 — callers that
/// accept user input must reject such rates *before* this conversion (the
/// configuration layer enforces `0 < percent <= 100`), because a silent
/// one-cycle sample is statistically meaningless, not conservative.
pub fn percent_to_count(num_cycles: u64, percent: f64) -> usize {
    ((num_cycles as f64) * percent / 100.0).ceil().max(1.0) as usize
}

/// Uniformly samples at most `limit` edges (deterministic under `seed`).
/// With `limit >= edges.len()` this is the identity (every wire injected,
/// as in the paper).
pub fn sample_edges(edges: &[EdgeId], limit: usize, seed: u64) -> Vec<EdgeId> {
    if edges.len() <= limit {
        return edges.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: Vec<EdgeId> = edges.choose_multiple(&mut rng, limit).copied().collect();
    picked.sort_unstable();
    picked
}

// ---------------------------------------------------------------------------
// Adaptive stratified sampling (ROADMAP: "adaptive importance sampling for
// campaign cost"). Injection sites are grouped into strata by cheap static
// signals (edge slack, per-cycle toggle activity), the replay budget is
// allocated Neyman-style from the running per-stratum variance, and a
// stratum retires as soon as its Wilson interval is tighter than the target
// half-width. All decisions are pure functions of previously recorded
// tallies, so a plan replays deterministically — the property the
// checkpoint layer's byte-identical resume builds on.
// ---------------------------------------------------------------------------

/// Default number of buckets per stratification axis.
pub const DEFAULT_STRATA: usize = 4;

/// Maximum number of buckets per stratification axis.
pub const MAX_STRATA: usize = 16;

/// Validates an adaptive CI target half-width. The open interval keeps the
/// knob meaningful: `0` can never be reached by a Wilson interval and
/// `>= 0.5` is satisfied by an unsampled stratum.
pub fn validate_ci_target(target: f64) -> Result<f64, String> {
    if target.is_finite() && target > 0.0 && target < 0.5 {
        Ok(target)
    } else {
        Err(format!("ci_target must be in (0, 0.5), got {target}"))
    }
}

/// Validates a per-axis stratification bucket count.
pub fn validate_strata(strata: usize) -> Result<usize, String> {
    if (1..=MAX_STRATA).contains(&strata) {
        Ok(strata)
    } else {
        Err(format!("strata must be in 1..={MAX_STRATA}, got {strata}"))
    }
}

/// Equal-width bucketing of one stratification signal: each value maps to a
/// bucket in `0..buckets` by its position in the observed `[min, max]`
/// range. A constant signal (including the empty and single-value cases)
/// collapses into bucket 0 — degenerate axes cost nothing, they just stop
/// discriminating.
pub fn bucket_axis(values: &[u64], buckets: usize) -> Vec<usize> {
    assert!(buckets >= 1, "at least one bucket");
    let (Some(&min), Some(&max)) = (values.iter().min(), values.iter().max()) else {
        return Vec::new();
    };
    if min == max || buckets == 1 {
        return vec![0; values.len()];
    }
    let span = (max - min) as u128 + 1;
    values
        .iter()
        .map(|&v| ((v - min) as u128 * buckets as u128 / span) as usize)
        .collect()
}

/// A composed stratified estimate: the weighted point estimate and the
/// conservative 95% interval around it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StratifiedEstimate {
    /// Weighted point estimate `Σ W_h · p̂_h`, clamped to `[0, 1]`.
    pub point: f64,
    /// Lower interval bound, clamped to `[0, 1]`.
    pub lo: f64,
    /// Upper interval bound, clamped to `[0, 1]`.
    pub hi: f64,
}

impl StratifiedEstimate {
    /// Half the interval width.
    pub fn half_width(&self) -> f64 {
        (self.hi - self.lo) / 2.0
    }
}

/// Composes per-stratum intervals into one stratified estimate. Each part
/// is `(weight, point, half_width)`; the composed half-width is
/// `sqrt(Σ (w_h · hw_h)²)` — the independent-strata error composition,
/// conservative because `Σ W_h² ≤ (Σ W_h)²`: when every stratum retired at
/// half-width `t` and the weights sum to 1, the composed half-width is
/// `t · sqrt(Σ W_h²) ≤ t`. No parts yield the vacuous `[0, 1]` interval.
pub fn compose_intervals(parts: &[(f64, f64, f64)]) -> StratifiedEstimate {
    if parts.is_empty() {
        return StratifiedEstimate {
            point: 0.0,
            lo: 0.0,
            hi: 1.0,
        };
    }
    let point: f64 = parts
        .iter()
        .map(|&(w, p, _)| w * p)
        .sum::<f64>()
        .clamp(0.0, 1.0);
    let hw = parts
        .iter()
        .map(|&(w, _, h)| (w * h) * (w * h))
        .sum::<f64>()
        .sqrt();
    StratifiedEstimate {
        point,
        lo: (point - hw).max(0.0),
        hi: (point + hw).min(1.0),
    }
}

/// Allocates `budget` samples across strata proportionally to their Neyman
/// weights. Each entry of `needs` is `(remaining, weight)` — the stratum's
/// unsampled population and its `W_h · s_h` allocation weight (any
/// non-negative scale; all-zero weights fall back to equal shares).
///
/// Guarantees, pinned by the property tests below:
///
/// * the allocations sum to `min(budget, Σ remaining)`;
/// * no stratum is allocated past its remaining population;
/// * **every** stratum with remaining population receives at least one
///   sample while budget remains (rounding must never starve a nonempty
///   stratum — the `percent_to_count` × stratification interaction fix);
/// * equal-remaining strata are allocated monotonically in weight;
/// * ties break toward the lower index, keeping the result deterministic.
pub fn neyman_allocation(budget: usize, needs: &[(usize, f64)]) -> Vec<usize> {
    let mut alloc = vec![0usize; needs.len()];
    let total_remaining: usize = needs.iter().map(|&(r, _)| r).sum();
    let mut left = budget.min(total_remaining);
    // The ≥1 floor, in descending-weight order (ties toward the lower
    // index) while budget lasts, so a budget smaller than the stratum
    // count still lands on the highest-variance strata first.
    let mut by_weight: Vec<usize> = (0..needs.len()).filter(|&i| needs[i].0 > 0).collect();
    by_weight.sort_by(|&a, &b| {
        needs[b]
            .1
            .partial_cmp(&needs[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for i in by_weight {
        if left == 0 {
            break;
        }
        alloc[i] = 1;
        left -= 1;
    }
    // Largest-remainder proportional distribution of the rest, re-run while
    // capped strata return unused budget. Each pass either spends the
    // remaining budget or shrinks the uncapped set, so it terminates.
    while left > 0 {
        let open: Vec<usize> = (0..needs.len())
            .filter(|&i| alloc[i] < needs[i].0)
            .collect();
        if open.is_empty() {
            break;
        }
        let weight_of = |i: usize| needs[i].1.max(0.0);
        let wsum: f64 = open.iter().map(|&i| weight_of(i)).sum();
        let share = |i: usize| {
            if wsum > 0.0 {
                left as f64 * weight_of(i) / wsum
            } else {
                left as f64 / open.len() as f64
            }
        };
        let mut gave = 0usize;
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(open.len());
        for &i in &open {
            let s = share(i);
            let whole = (s.floor() as usize)
                .min(needs[i].0 - alloc[i])
                .min(left - gave);
            alloc[i] += whole;
            gave += whole;
            fracs.push((i, s - s.floor()));
        }
        // Distribute the rounding leftover by descending fractional part,
        // ties toward the lower index (sort is stable over the index-ordered
        // `open` list).
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (i, _) in fracs {
            if gave == left {
                break;
            }
            if alloc[i] < needs[i].0 {
                alloc[i] += 1;
                gave += 1;
            }
        }
        if gave == 0 {
            // Degenerate rounding (every share floored to 0 and every
            // fractional winner already capped): force progress on the
            // first open stratum.
            alloc[open[0]] += 1;
            gave = 1;
        }
        left -= gave;
    }
    alloc
}

/// An adaptive sampling plan over a fixed population of injection sites.
///
/// Sites are dealt into strata up front (`site_stratum[site]`), each
/// stratum's visit order is a seed-deterministic shuffle, and rounds
/// proceed until every stratum has either retired (all of its estimands'
/// Wilson intervals are within the target half-width) or run out of sites.
/// Recording is additive, so a round's tallies are independent of the
/// order its sites were evaluated in — the schedule invariance the
/// campaign engine requires.
#[derive(Clone, Debug)]
pub struct AdaptivePlan {
    site_stratum: Vec<usize>,
    /// Shuffled site visit order, per stratum.
    order: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    /// Per-stratum, per-estimand trial and hit tallies.
    trials: Vec<Vec<u64>>,
    hits: Vec<Vec<u64>>,
    retired: Vec<bool>,
    retired_early: usize,
    sampled_sites: usize,
    num_estimands: usize,
    ci_target: f64,
    round_budget: usize,
}

impl AdaptivePlan {
    /// Builds a plan for `site_stratum.len()` sites dealt into `num_strata`
    /// strata, estimating `num_estimands` proportions to a Wilson
    /// half-width of `ci_target`, with visit order derived from `seed`.
    pub fn new(
        site_stratum: Vec<usize>,
        num_strata: usize,
        num_estimands: usize,
        ci_target: f64,
        seed: u64,
    ) -> Self {
        let ci_target = validate_ci_target(ci_target).expect("validated ci_target");
        let mut order: Vec<Vec<usize>> = vec![Vec::new(); num_strata];
        for (site, &h) in site_stratum.iter().enumerate() {
            order[h].push(site);
        }
        for (h, sites) in order.iter_mut().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(seed ^ (h as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            sites.shuffle(&mut rng);
        }
        let population = site_stratum.len();
        // Roughly an eighth of the population per round, clamped so tiny
        // populations still finish in one round and huge ones still adapt.
        let round_budget = population.div_ceil(8).max(16).min(population.max(1));
        AdaptivePlan {
            site_stratum,
            retired: order.iter().map(Vec::is_empty).collect(),
            cursor: vec![0; num_strata],
            trials: vec![vec![0; num_estimands]; num_strata],
            hits: vec![vec![0; num_estimands]; num_strata],
            order,
            retired_early: 0,
            sampled_sites: 0,
            num_estimands,
            ci_target,
            round_budget,
        }
    }

    /// Total number of sites in the population.
    pub fn population(&self) -> usize {
        self.site_stratum.len()
    }

    /// Sites consumed by `next_round` so far.
    pub fn sampled_sites(&self) -> usize {
        self.sampled_sites
    }

    /// Number of nonempty strata.
    pub fn strata_active(&self) -> usize {
        self.order.iter().filter(|s| !s.is_empty()).count()
    }

    /// Strata retired by the CI criterion with population still unsampled.
    pub fn strata_retired_early(&self) -> usize {
        self.retired_early
    }

    /// The next round's sites, in ascending site order (empty when every
    /// stratum has retired or been exhausted). Advances the per-stratum
    /// cursors; every returned site must be evaluated and recorded before
    /// `finish_round`.
    pub fn next_round(&mut self) -> Vec<usize> {
        let needs: Vec<(usize, f64)> = (0..self.order.len())
            .map(|h| {
                if self.retired[h] {
                    return (0, 0.0);
                }
                (self.order[h].len() - self.cursor[h], self.stratum_weight(h))
            })
            .collect();
        let alloc = neyman_allocation(self.round_budget, &needs);
        let mut picked = Vec::new();
        for (h, take) in alloc.into_iter().enumerate() {
            let from = self.cursor[h];
            self.cursor[h] += take;
            picked.extend_from_slice(&self.order[h][from..self.cursor[h]]);
        }
        self.sampled_sites += picked.len();
        picked.sort_unstable();
        picked
    }

    /// Neyman allocation weight of stratum `h`: its population share times
    /// the largest per-estimand binomial standard deviation, with the
    /// Laplace-smoothed proportion `(hits + 1) / (trials + 2)` so an
    /// unsampled stratum starts at the maximal `s = 0.5`.
    fn stratum_weight(&self, h: usize) -> f64 {
        let w = self.order[h].len() as f64 / self.population().max(1) as f64;
        let s = (0..self.num_estimands.max(1))
            .map(|e| {
                let (hits, trials) = if e < self.num_estimands {
                    (self.hits[h][e], self.trials[h][e])
                } else {
                    (0, 0)
                };
                let p = (hits as f64 + 1.0) / (trials as f64 + 2.0);
                (p * (1.0 - p)).sqrt()
            })
            .fold(0.0f64, f64::max);
        w * s
    }

    /// Records one evaluated site's per-estimand hit and trial counts.
    pub fn record(&mut self, site: usize, hits: &[u64], trials: &[u64]) {
        assert_eq!(hits.len(), self.num_estimands, "one hit count per estimand");
        assert_eq!(
            trials.len(),
            self.num_estimands,
            "one trial count per estimand"
        );
        let h = self.site_stratum[site];
        for e in 0..self.num_estimands {
            self.hits[h][e] += hits[e];
            self.trials[h][e] += trials[e];
        }
    }

    /// Applies the retirement criterion after a round's tallies are in:
    /// a stratum retires when its widest per-estimand Wilson interval is
    /// within the target (counted in `strata_retired_early` if sites
    /// remain) or when it has no sites left.
    pub fn finish_round(&mut self) {
        for h in 0..self.order.len() {
            if self.retired[h] {
                continue;
            }
            let remaining = self.order[h].len() - self.cursor[h];
            let sampled = self.cursor[h] > 0;
            if sampled && self.max_half_width(h) <= self.ci_target {
                self.retired[h] = true;
                if remaining > 0 {
                    self.retired_early += 1;
                }
            } else if remaining == 0 {
                self.retired[h] = true;
            }
        }
    }

    /// Finite-population correction factor of stratum `h`: sites are drawn
    /// **without replacement** from a fixed, finite site population, and
    /// the estimand is the value the exhaustive campaign would compute over
    /// that same population — so the stratum-mean standard error shrinks by
    /// `sqrt(1 - m_h/n_h)` (Cochran's FPC) and vanishes entirely once the
    /// stratum is fully sampled, exactly when the sampled tally *is* the
    /// exhaustive tally.
    fn fpc(&self, h: usize) -> f64 {
        let n = self.order[h].len();
        if n == 0 {
            return 1.0;
        }
        (1.0 - self.cursor[h] as f64 / n as f64).max(0.0).sqrt()
    }

    /// The widest per-estimand Wilson half-width of stratum `h`, with the
    /// finite-population correction applied.
    fn max_half_width(&self, h: usize) -> f64 {
        let fpc = self.fpc(h);
        (0..self.num_estimands)
            .map(|e| {
                let (lo, hi) = crate::report::wilson_interval(
                    self.hits[h][e] as usize,
                    self.trials[h][e] as usize,
                );
                (hi - lo) / 2.0 * fpc
            })
            .fold(0.0f64, f64::max)
    }

    /// The composed stratified estimate for estimand `e`: per-stratum
    /// Wilson intervals deflated by the finite-population correction and
    /// weighted by population share (an unsampled stratum contributes the
    /// vacuous `p̂ = 0.5 ± 0.5`; a fully sampled one contributes its exact
    /// exhaustive tally with zero width).
    pub fn estimate(&self, e: usize) -> StratifiedEstimate {
        let population = self.population();
        let parts: Vec<(f64, f64, f64)> = (0..self.order.len())
            .filter(|&h| !self.order[h].is_empty())
            .map(|h| {
                let w = self.order[h].len() as f64 / population as f64;
                let (hits, trials) = (self.hits[h][e], self.trials[h][e]);
                if trials == 0 {
                    return (w, 0.5, 0.5);
                }
                let p = hits as f64 / trials as f64;
                let (lo, hi) = crate::report::wilson_interval(hits as usize, trials as usize);
                (w, p, (hi - lo) / 2.0 * self.fpc(h))
            })
            .collect();
        compose_intervals(&parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spaced_cycles_cover_the_run() {
        let s = spaced_cycles(1000, 10);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 1);
        assert_eq!(*s.last().unwrap(), 999);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn spaced_cycles_clamp_to_short_programs() {
        assert_eq!(spaced_cycles(3, 10), vec![1, 2]);
        assert_eq!(spaced_cycles(2, 10), vec![1]);
        let s = spaced_cycles(100, 1);
        assert_eq!(s, vec![1]);
    }

    #[test]
    fn percent_conversion_matches_paper_configs() {
        // 4% of 8903 cycles (matmult in Table II) ≈ 357 injection cycles.
        assert_eq!(percent_to_count(8903, 4.0), 357);
        assert_eq!(percent_to_count(10, 0.01), 1, "at least one cycle");
    }

    #[test]
    fn percent_conversion_collapses_degenerate_rates_to_one() {
        // Pinned behavior: the at-least-one clamp absorbs rates the config
        // layer is responsible for rejecting. If this ever changes, the
        // validation contract documented on `percent_to_count` moves too.
        assert_eq!(percent_to_count(1000, -4.0), 1);
        assert_eq!(percent_to_count(1000, 0.0), 1);
        assert_eq!(percent_to_count(1000, f64::NAN), 1);
        assert_eq!(percent_to_count(1000, f64::NEG_INFINITY), 1);
        // Positive infinity saturates instead of wrapping.
        assert_eq!(percent_to_count(1000, f64::INFINITY), usize::MAX);
    }

    #[test]
    fn cycle_samplers_handle_degenerate_runs() {
        // No injectable cycle exists below two cycles (cycle 0 has no
        // previous settled cycle), and a zero-count request is empty.
        for sampler in [
            &(|n, c| spaced_cycles(n, c)) as &dyn Fn(u64, usize) -> Vec<u64>,
            &|n, c| stratified_cycles(n, c, 7),
        ] {
            assert_eq!(sampler(0, 5), Vec::<u64>::new());
            assert_eq!(sampler(1, 5), Vec::<u64>::new());
            assert_eq!(sampler(100, 0), Vec::<u64>::new());
            // A single-sample request returns exactly one in-range cycle.
            let one = sampler(100, 1);
            assert_eq!(one.len(), 1);
            assert!((1..=99).contains(&one[0]));
            // Exactly one injectable cycle exists in a two-cycle run.
            assert_eq!(sampler(2, 5), vec![1]);
        }
    }

    #[test]
    fn stratified_cycles_stay_sorted_in_range_and_deterministic() {
        let a = stratified_cycles(1000, 40, 9);
        assert_eq!(a, stratified_cycles(1000, 40, 9), "seed-deterministic");
        assert_eq!(a.len(), 40, "disjoint strata never collide");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert!(a.iter().all(|&c| (1..=999).contains(&c)), "in range");
        // Oversampling clamps to the number of injectable cycles.
        let all = stratified_cycles(10, 100, 3);
        assert_eq!(all, (1..=9).collect::<Vec<u64>>());
    }

    #[test]
    fn edge_sampling_is_deterministic_and_bounded() {
        let edges: Vec<EdgeId> = (0..100).map(EdgeId::from_index).collect();
        let a = sample_edges(&edges, 10, 7);
        let b = sample_edges(&edges, 10, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        assert_ne!(a, sample_edges(&edges, 10, 8));
        assert_eq!(sample_edges(&edges, 1000, 7), edges);
    }

    // -- adaptive stratified sampling ------------------------------------

    /// Seeded generator for the allocator property sweep: `(remaining,
    /// weight)` vectors covering empty, zero-weight and zero-remaining
    /// strata.
    fn random_needs(rng: &mut StdRng, max_strata: usize) -> Vec<(usize, f64)> {
        use rand::Rng;
        let n = rng.gen_range(0..max_strata + 1);
        (0..n)
            .map(|_| {
                let remaining = match rng.gen_range(0..4u32) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(0..200usize),
                };
                let weight = match rng.gen_range(0..3u32) {
                    0 => 0.0,
                    // The vendored rand only samples integer ranges.
                    _ => rng.gen_range(0..2000u32) as f64 / 1000.0,
                };
                (remaining, weight)
            })
            .collect()
    }

    #[test]
    fn allocation_sums_to_budget_and_respects_caps() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let needs = random_needs(&mut rng, 12);
            let budget = rng.gen_range(0..300usize);
            let alloc = neyman_allocation(budget, &needs);
            assert_eq!(alloc.len(), needs.len());
            let total_remaining: usize = needs.iter().map(|&(r, _)| r).sum();
            assert_eq!(
                alloc.iter().sum::<usize>(),
                budget.min(total_remaining),
                "allocations must sum to min(budget, remaining): {needs:?} @ {budget}"
            );
            for (a, &(remaining, _)) in alloc.iter().zip(&needs) {
                assert!(*a <= remaining, "over-allocated past the population");
            }
        }
    }

    #[test]
    fn allocation_never_starves_a_nonempty_stratum_while_budget_remains() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..500 {
            let needs = random_needs(&mut rng, 12);
            let eligible = needs.iter().filter(|&&(r, _)| r > 0).count();
            // Budget at least covers one sample per nonempty stratum.
            let budget = eligible + rng.gen_range(0..100usize);
            let alloc = neyman_allocation(budget, &needs);
            for (a, &(remaining, w)) in alloc.iter().zip(&needs) {
                if remaining > 0 {
                    assert!(
                        *a >= 1,
                        "nonempty stratum (rem {remaining}, w {w}) starved: {needs:?} @ {budget}"
                    );
                }
            }
        }
    }

    /// The exact-boundary regression pinned by the satellite: a
    /// `percent_to_count`-derived budget that exactly equals the stratum
    /// count, against wildly skewed weights. Pure largest-remainder
    /// rounding would hand every sample to the heavy stratum; the ≥1 floor
    /// must keep each nonempty stratum alive.
    #[test]
    fn percent_to_count_boundary_budget_keeps_every_stratum_alive() {
        // 4% of 100 cycles = exactly 4 samples (no rounding slack), and
        // the paper's matmult-style 4% of 8903 = 357.
        assert_eq!(percent_to_count(100, 4.0), 4);
        let needs = [(50, 1000.0), (1, 1e-6), (1, 0.0), (48, 900.0)];
        let alloc = neyman_allocation(percent_to_count(100, 4.0), &needs);
        assert_eq!(alloc.iter().sum::<usize>(), 4);
        assert!(
            alloc.iter().all(|&a| a >= 1),
            "boundary budget must not drop a nonempty stratum to zero: {alloc:?}"
        );
        // One sample short of the floor: the highest-weight strata sample
        // this round (deterministically), nobody over-allocates.
        let alloc = neyman_allocation(3, &needs);
        assert_eq!(alloc, vec![1, 1, 0, 1]);
        // With rounding slack (ceil) the count covers the strata again.
        assert_eq!(percent_to_count(101, 4.0), 5);
        let alloc = neyman_allocation(percent_to_count(101, 4.0), &needs);
        assert!(alloc.iter().all(|&a| a >= 1));
    }

    #[test]
    fn allocation_is_monotone_in_weight_for_equal_remaining() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..500 {
            let n = rng.gen_range(2..10usize);
            let remaining = rng.gen_range(1..100usize);
            let needs: Vec<(usize, f64)> = (0..n)
                .map(|_| (remaining, rng.gen_range(0..3000u32) as f64 / 1000.0))
                .collect();
            let budget = rng.gen_range(0..(n * remaining + 20));
            let alloc = neyman_allocation(budget, &needs);
            for i in 0..n {
                for j in 0..n {
                    if needs[i].1 > needs[j].1 {
                        assert!(
                            alloc[i] >= alloc[j],
                            "higher-variance stratum got less: {needs:?} @ {budget} -> {alloc:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn allocation_handles_degenerate_strata_without_panicking() {
        // Empty input, all-empty strata, all-zero weights, zero budget.
        assert_eq!(neyman_allocation(10, &[]), Vec::<usize>::new());
        assert_eq!(neyman_allocation(10, &[(0, 1.0), (0, 0.0)]), vec![0, 0]);
        assert_eq!(neyman_allocation(0, &[(5, 1.0)]), vec![0]);
        let alloc = neyman_allocation(7, &[(3, 0.0), (9, 0.0)]);
        assert_eq!(alloc.iter().sum::<usize>(), 7);
        // Budget exceeding the population exhausts it exactly.
        assert_eq!(neyman_allocation(100, &[(3, 0.5), (2, 0.1)]), vec![3, 2]);
    }

    #[test]
    fn bucket_axis_spans_and_collapses() {
        assert_eq!(bucket_axis(&[], 4), Vec::<usize>::new());
        // Constant signal: one bucket, no discrimination.
        assert_eq!(bucket_axis(&[7, 7, 7], 4), vec![0, 0, 0]);
        // Extremes land in the first and last bucket.
        let b = bucket_axis(&[0, 10, 20, 30], 4);
        assert_eq!(b, vec![0, 1, 2, 3]);
        assert!(
            bucket_axis(&[u64::MAX, 0], 16) == vec![15, 0],
            "no overflow"
        );
        // Single bucket collapses everything.
        assert_eq!(bucket_axis(&[1, 5, 9], 1), vec![0, 0, 0]);
    }

    #[test]
    fn composed_interval_is_within_target_when_every_stratum_is() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(45);
        for _ in 0..200 {
            let n = rng.gen_range(1..10usize);
            let target = 0.001 + rng.gen_range(0..399u32) as f64 / 1000.0;
            // Random weights summing to 1.
            let raw: Vec<f64> = (0..n)
                .map(|_| rng.gen_range(10..1000u32) as f64 / 1000.0)
                .collect();
            let sum: f64 = raw.iter().sum();
            let parts: Vec<(f64, f64, f64)> = raw
                .iter()
                .map(|&w| {
                    (
                        w / sum,
                        rng.gen_range(0..1001u32) as f64 / 1000.0,
                        target * (rng.gen_range(0..1000u32) as f64 / 1000.0),
                    )
                })
                .collect();
            let est = compose_intervals(&parts);
            assert!(est.half_width() <= target + 1e-12, "{parts:?}");
            assert!((0.0..=1.0).contains(&est.point));
            assert!(est.lo <= est.point && est.point <= est.hi);
            assert!(est.lo >= 0.0 && est.hi <= 1.0);
        }
    }

    #[test]
    fn composed_interval_without_parts_is_vacuous() {
        let est = compose_intervals(&[]);
        assert_eq!((est.point, est.lo, est.hi), (0.0, 0.0, 1.0));
    }

    #[test]
    fn knob_validation_pins_error_text() {
        assert_eq!(validate_ci_target(0.05), Ok(0.05));
        for bad in [0.0, -0.1, 0.5, 1.0, f64::NAN, f64::INFINITY] {
            let err = validate_ci_target(bad).unwrap_err();
            assert!(
                err.starts_with("ci_target must be in (0, 0.5), got"),
                "{err}"
            );
        }
        assert_eq!(validate_strata(1), Ok(1));
        assert_eq!(validate_strata(MAX_STRATA), Ok(MAX_STRATA));
        for bad in [0, MAX_STRATA + 1, 1000] {
            let err = validate_strata(bad).unwrap_err();
            assert!(err.starts_with("strata must be in 1..=16, got"), "{err}");
        }
    }

    /// A plan over a synthetic two-stratum population: one certain stratum
    /// (all misses) retires early, one coin-flip stratum is driven to
    /// exhaustion; the plan terminates, is seed-deterministic, and its
    /// bookkeeping is consistent.
    #[test]
    fn plan_retires_tight_strata_and_exhausts_noisy_ones() {
        // Stratum 0: 400 sites, never a hit. Stratum 1: 40 sites,
        // alternating hits (maximal variance at tiny population).
        let site_stratum: Vec<usize> = (0..440).map(|s| usize::from(s >= 400)).collect();
        let run = |seed: u64| {
            let mut plan = AdaptivePlan::new(site_stratum.clone(), 2, 1, 0.05, seed);
            let mut visited = Vec::new();
            loop {
                let sites = plan.next_round();
                if sites.is_empty() {
                    break;
                }
                for &site in &sites {
                    let hit = u64::from(site >= 400 && site % 2 == 0);
                    plan.record(site, &[hit], &[1]);
                }
                visited.extend(sites);
                plan.finish_round();
            }
            (visited, plan)
        };
        let (visited, plan) = run(9);
        // Terminated, visited each site at most once.
        let mut unique = visited.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), visited.len(), "no site visited twice");
        assert_eq!(plan.sampled_sites(), visited.len());
        assert_eq!(plan.strata_active(), 2);
        // The all-miss stratum retires early (its Wilson interval collapses
        // fast); the noisy one runs out of sites before reaching 0.05.
        assert_eq!(plan.strata_retired_early(), 1);
        assert!(plan.sampled_sites() < 440, "early retirement saves sites");
        // Deterministic under the same seed, different under another.
        let (visited2, _) = run(9);
        assert_eq!(visited, visited2);
        let (visited3, _) = run(10);
        assert_ne!(visited, visited3);
        // The single-estimand composed estimate brackets the truth
        // (stratified weighting: 400/440 · 0 + 40/440 · 0.5 ≈ 0.045).
        let est = plan.estimate(0);
        assert!(est.lo <= 0.0455 && 0.0455 <= est.hi, "{est:?}");
    }

    #[test]
    fn plan_handles_degenerate_populations() {
        // Empty population: immediately done.
        let mut plan = AdaptivePlan::new(Vec::new(), 4, 1, 0.1, 7);
        assert!(plan.next_round().is_empty());
        assert_eq!(plan.strata_active(), 0);
        assert_eq!(plan.estimate(0), compose_intervals(&[]));
        // Single site, single stratum, zero estimands: one round, done.
        let mut plan = AdaptivePlan::new(vec![0], 1, 0, 0.1, 7);
        let sites = plan.next_round();
        assert_eq!(sites, vec![0]);
        plan.record(0, &[], &[]);
        plan.finish_round();
        assert!(plan.next_round().is_empty());
        assert_eq!(plan.sampled_sites(), 1);
        // Sparse strata (most buckets empty) collapse without panics.
        let mut plan = AdaptivePlan::new(vec![255, 255, 255], 256, 1, 0.1, 7);
        assert_eq!(plan.strata_active(), 1);
        let sites = plan.next_round();
        assert_eq!(sites.len(), 3);
    }
}
