//! Random variates used by the model.
//!
//! The paper draws external/internal think times and the adaptive restart
//! delay from exponential distributions, transaction sizes from a discrete
//! uniform distribution, write membership from a Bernoulli trial, and read
//! sets uniformly **without replacement** from the database.

use crate::rng::RandomSource;
use crate::time::SimDuration;

/// Exponential distribution over simulated durations.
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: SimDuration,
}

impl Exponential {
    /// An exponential with the given mean.
    #[must_use]
    pub fn new(mean: SimDuration) -> Self {
        Exponential { mean }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        self.mean
    }

    /// Draw one variate. A zero mean yields a zero duration (degenerate
    /// distribution), which the model uses to disable a think path.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> SimDuration {
        sample_exponential(self.mean, rng)
    }
}

/// Convert one uniform 64-bit word into exponential microseconds.
///
/// This is the single definition of the word → variate mapping: the scalar
/// path ([`sample_exponential`]) and the batched path ([`ExpBlock`]) both
/// call it, so the two agree bit-for-bit by construction — including at the
/// u → 1.0 boundary (word with all top 53 bits set), where `1 - u` is the
/// smallest representable positive step and `-ln` peaks at ~36.7 means.
#[inline]
fn exp_micros_from_word(mean_us: f64, word: u64) -> u64 {
    // Top 53 bits give U in [0, 1) — exactly `RandomSource::next_f64`.
    let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    // Inverse transform: -mean * ln(1 - U), U in [0,1) so 1-U in (0,1].
    let x = -mean_us * (1.0 - u).ln();
    x.round() as u64
}

/// Draw an exponential variate with the given mean without constructing a
/// distribution value (used where the mean changes every draw, e.g. the
/// adaptive restart delay).
pub fn sample_exponential<R: RandomSource>(mean: SimDuration, rng: &mut R) -> SimDuration {
    if mean.is_zero() {
        return SimDuration::ZERO;
    }
    SimDuration::from_micros(exp_micros_from_word(
        mean.as_micros() as f64,
        rng.next_u64(),
    ))
}

/// Variates buffered per refill in [`ExpBlock`] / [`UniformBlock`].
const DIST_BLOCK: usize = 16;

/// Batched exponential sampler for a **fixed** mean: draws uniform words a
/// block at a time and converts them with `ln` in one tight loop, then
/// serves variates from the buffer.
///
/// Because the refill consumes words from the stream in order and converts
/// each with the same `exp_micros_from_word` the scalar path uses, the
/// variate sequence is bit-identical to calling
/// [`sample_exponential`] per draw — provided this block is the stream's
/// sole consumer (otherwise the prefetch would reorder draws across
/// consumers). A zero mean is degenerate exactly like the scalar path:
/// every sample is zero and **no** randomness is consumed.
#[derive(Debug, Clone)]
pub struct ExpBlock {
    mean: SimDuration,
    mean_us: f64,
    buf: [u64; DIST_BLOCK],
    pos: usize,
}

impl ExpBlock {
    /// A batched sampler with the given fixed mean.
    #[must_use]
    pub fn new(mean: SimDuration) -> Self {
        ExpBlock {
            mean,
            mean_us: mean.as_micros() as f64,
            buf: [0; DIST_BLOCK],
            pos: DIST_BLOCK,
        }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        self.mean
    }

    /// Draw one variate; refills the buffer from `rng` when it runs dry.
    #[inline]
    pub fn sample<R: RandomSource>(&mut self, rng: &mut R) -> SimDuration {
        if self.mean.is_zero() {
            return SimDuration::ZERO;
        }
        if self.pos == DIST_BLOCK {
            self.refill(rng);
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        SimDuration::from_micros(v)
    }

    #[cold]
    fn refill<R: RandomSource>(&mut self, rng: &mut R) {
        let mut words = [0u64; DIST_BLOCK];
        rng.fill_u64(&mut words);
        for (out, w) in self.buf.iter_mut().zip(words) {
            *out = exp_micros_from_word(self.mean_us, w);
        }
        self.pos = 0;
    }

    /// Batched draw: fill `out` with variates. Equivalent bit-for-bit — in
    /// values, word consumption, and the buffer state left behind — to
    /// `out.len()` calls to [`ExpBlock::sample`], but served a buffered run
    /// at a time instead of one position check per draw.
    pub fn fill<R: RandomSource>(&mut self, rng: &mut R, out: &mut [SimDuration]) {
        if self.mean.is_zero() {
            out.fill(SimDuration::ZERO);
            return;
        }
        let mut out = out;
        while !out.is_empty() {
            if self.pos == DIST_BLOCK {
                self.refill(rng);
            }
            let take = (DIST_BLOCK - self.pos).min(out.len());
            let run = &self.buf[self.pos..self.pos + take];
            for (o, &v) in out[..take].iter_mut().zip(run) {
                *o = SimDuration::from_micros(v);
            }
            self.pos += take;
            out = &mut out[take..];
        }
    }
}

/// Batched uniform-integer sampler over `[0, bound)` for a **fixed** bound:
/// buffers uniform words and applies Lemire's multiply-shift per draw, with
/// the rejection threshold precomputed once at construction.
///
/// Word consumption matches `RandomSource::next_below(bound)` exactly: the
/// power-of-two fast path masks one word per draw, and the Lemire path
/// accepts a word iff its low product half is ≥ `2^64 mod bound` — the same
/// accept/reject sequence as the scalar's lazy-threshold form — so the
/// value sequence is bit-identical when this block is the stream's sole
/// consumer.
#[derive(Debug, Clone)]
pub struct UniformBlock {
    bound: u64,
    /// `2^64 mod bound`; only consulted on the non-power-of-two path.
    threshold: u64,
    words: [u64; DIST_BLOCK],
    pos: usize,
}

impl UniformBlock {
    /// A batched sampler over `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[must_use]
    pub fn new(bound: u64) -> Self {
        assert!(bound > 0, "UniformBlock bound must be positive");
        UniformBlock {
            bound,
            threshold: bound.wrapping_neg() % bound,
            words: [0; DIST_BLOCK],
            pos: DIST_BLOCK,
        }
    }

    /// The exclusive upper bound.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Draw one variate; refills the buffer from `rng` as words are used.
    #[inline]
    pub fn sample<R: RandomSource>(&mut self, rng: &mut R) -> u64 {
        loop {
            if self.pos == DIST_BLOCK {
                rng.fill_u64(&mut self.words);
                self.pos = 0;
            }
            let w = self.words[self.pos];
            self.pos += 1;
            if self.bound.is_power_of_two() {
                return w & (self.bound - 1);
            }
            let m = (w as u128) * (self.bound as u128);
            if (m as u64) >= self.threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Batched draw: fill `out` with variates, identical to `out.len()`
    /// calls to [`UniformBlock::sample`]. Rejection makes the per-draw word
    /// count data-dependent, so this stays a sample loop — the win is the
    /// block-refilled word stream underneath, not vectorized rejection.
    pub fn fill<R: RandomSource>(&mut self, rng: &mut R, out: &mut [u64]) {
        for o in out {
            *o = self.sample(rng);
        }
    }
}

/// Discrete uniform over an inclusive integer range.
#[derive(Debug, Clone, Copy)]
pub struct UniformInclusive {
    lo: u64,
    hi: u64,
}

impl UniformInclusive {
    /// Uniform over `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "UniformInclusive: lo > hi");
        UniformInclusive { lo, hi }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.lo + self.hi) as f64 / 2.0
    }

    /// Draw one variate.
    pub fn sample<R: RandomSource>(&self, rng: &mut R) -> u64 {
        rng.next_range_inclusive(self.lo, self.hi)
    }
}

/// Sample `k` **distinct** integers uniformly from `[0, n)` using Robert
/// Floyd's algorithm: O(k) draws, no O(n) allocation.
///
/// The returned order is randomized (the paper's transactions access their
/// read sets in an arbitrary but fixed order).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct<R: RandomSource>(n: u64, k: usize, rng: &mut R) -> Vec<u64> {
    let mut chosen: Vec<u64> = Vec::with_capacity(k);
    sample_distinct_into(n, k, rng, &mut chosen);
    chosen
}

/// As [`sample_distinct`], but writing into `out` (cleared first) so a
/// caller that draws a sample per transaction can recycle one buffer
/// instead of allocating each time. Consumes identical randomness.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_distinct_into<R: RandomSource>(n: u64, k: usize, rng: &mut R, out: &mut Vec<u64>) {
    assert!(
        (k as u64) <= n,
        "sample_distinct: cannot draw {k} distinct values from a universe of {n}"
    );
    out.clear();
    out.reserve(k);
    // Floyd: for j = n-k .. n-1, pick t in [0, j]; if t already chosen, take j.
    let start = n - k as u64;
    for j in start..n {
        let t = rng.next_below(j + 1);
        if out.contains(&t) {
            out.push(j);
        } else {
            out.push(t);
        }
    }
    // Floyd's output is biased toward sorted insertion order; shuffle so the
    // access order is uniform too (Fisher-Yates).
    for i in (1..out.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use crate::time::MICROS_PER_SEC;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::seed_from_u64(20260705)
    }

    /// A `RandomSource` that replays a fixed word sequence — lets the edge
    /// tests drive both sampler paths with hand-picked words.
    struct FixedWords {
        words: Vec<u64>,
        pos: usize,
    }

    impl FixedWords {
        fn new(words: Vec<u64>) -> Self {
            FixedWords { words, pos: 0 }
        }

        fn consumed(&self) -> usize {
            self.pos
        }
    }

    impl RandomSource for FixedWords {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.pos % self.words.len()];
            self.pos += 1;
            w
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let d = Exponential::new(SimDuration::from_secs(2));
        let n = 200_000;
        let total: u64 = (0..n).map(|_| d.sample(&mut r).as_micros()).sum();
        let mean = total as f64 / n as f64;
        let expect = 2.0 * MICROS_PER_SEC as f64;
        assert!(
            (mean - expect).abs() / expect < 0.02,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn exponential_zero_mean_is_degenerate() {
        let mut r = rng();
        let d = Exponential::new(SimDuration::ZERO);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), SimDuration::ZERO);
        }
        // The zero-mean short-circuit must not consume randomness — on
        // either path. A perturbed stream would silently shift every later
        // draw and break CRN pairing.
        let mut scalar = FixedWords::new(vec![42]);
        assert_eq!(
            sample_exponential(SimDuration::ZERO, &mut scalar),
            SimDuration::ZERO
        );
        assert_eq!(scalar.consumed(), 0, "scalar zero-mean consumed a word");
        let mut batched_src = FixedWords::new(vec![42]);
        let mut batched = ExpBlock::new(SimDuration::ZERO);
        for _ in 0..100 {
            assert_eq!(batched.sample(&mut batched_src), SimDuration::ZERO);
        }
        assert_eq!(
            batched_src.consumed(),
            0,
            "batched zero-mean consumed words"
        );
    }

    #[test]
    fn exp_block_matches_scalar_bit_for_bit() {
        // Same stream, same mean: the batched sampler must reproduce the
        // scalar draw sequence exactly, across several refills.
        let mean = SimDuration::from_secs(1);
        let mut scalar_rng = rng();
        let mut batched_rng = rng();
        let mut block = ExpBlock::new(mean);
        for i in 0..1_000 {
            let s = sample_exponential(mean, &mut scalar_rng);
            let b = block.sample(&mut batched_rng);
            assert_eq!(s, b, "draw {i} diverged: scalar {s:?} vs batched {b:?}");
        }
    }

    #[test]
    fn exp_paths_agree_at_u_one_boundary() {
        // The largest representable U: all top 53 bits set, so 1 - U is one
        // ulp below 1.0 and -ln(1-U) is at its maximum (~36.7 means). Both
        // paths must map this word — and the all-zero word (U = 0, variate
        // 0) — to the same value.
        let max_u_word = u64::MAX; // top 53 bits all ones after >> 11
        let mean = SimDuration::from_secs(1);
        for word in [max_u_word, 0u64, 1u64 << 11, (1u64 << 63) | 0x7FF] {
            let mut scalar = FixedWords::new(vec![word]);
            let s = sample_exponential(mean, &mut scalar);
            let mut batched_src = FixedWords::new(vec![word]);
            let mut block = ExpBlock::new(mean);
            let b = block.sample(&mut batched_src);
            assert_eq!(s, b, "word {word:#x} diverged");
        }
        // And the boundary value itself is finite and near the analytic max.
        let mut src = FixedWords::new(vec![max_u_word]);
        let v = sample_exponential(mean, &mut src);
        let expect = -(MICROS_PER_SEC as f64)
            * (1.0 - (((u64::MAX >> 11) as f64) * (1.0 / (1u64 << 53) as f64))).ln();
        assert_eq!(v.as_micros(), expect.round() as u64);
    }

    #[test]
    fn uniform_block_matches_scalar_bit_for_bit() {
        // Power-of-two and Lemire-rejection bounds, across refills.
        for bound in [1u64, 2, 7, 1000, (1 << 20) - 1] {
            let mut scalar_rng = rng();
            let mut batched_rng = rng();
            let mut block = UniformBlock::new(bound);
            for i in 0..1_000 {
                let s = scalar_rng.next_below(bound);
                let b = block.sample(&mut batched_rng);
                assert_eq!(s, b, "bound {bound} draw {i} diverged");
            }
        }
    }

    #[test]
    fn exponential_variance_matches() {
        // For Exp(mean m), variance = m^2.
        let mut r = rng();
        let m = SimDuration::from_millis(500);
        let n = 200_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_exponential(m, &mut r).as_secs_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((var - 0.25).abs() < 0.01, "variance {var}");
    }

    #[test]
    fn uniform_inclusive_covers_range() {
        let mut r = rng();
        let d = UniformInclusive::new(4, 12);
        let mut counts = [0u32; 13];
        for _ in 0..90_000 {
            counts[d.sample(&mut r) as usize] += 1;
        }
        for (v, &count) in counts.iter().enumerate().take(13).skip(4) {
            assert!(count > 8_000, "value {v} count {count}");
        }
        assert_eq!(counts[..4].iter().sum::<u32>(), 0);
        assert!((d.mean() - 8.0).abs() < f64::EPSILON);
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = rng();
        for _ in 0..200 {
            let v = sample_distinct(1000, 12, &mut r);
            assert_eq!(v.len(), 12);
            let mut sorted = v.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 12, "duplicates in {v:?}");
            assert!(v.iter().all(|&x| x < 1000));
        }
    }

    #[test]
    fn sample_distinct_full_universe() {
        let mut r = rng();
        let mut v = sample_distinct(8, 8, &mut r);
        v.sort_unstable();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_is_roughly_uniform() {
        // Each of 20 objects should appear in a 4-subset with p = 0.2.
        let mut r = rng();
        let mut counts = [0u32; 20];
        let trials = 50_000;
        for _ in 0..trials {
            for x in sample_distinct(20, 4, &mut r) {
                counts[x as usize] += 1;
            }
        }
        for &c in &counts {
            let p = c as f64 / trials as f64;
            assert!((p - 0.2).abs() < 0.02, "inclusion prob {p}");
        }
    }

    #[test]
    fn sample_distinct_order_is_shuffled() {
        // The first element should be roughly uniform over the universe,
        // not biased toward small ids.
        let mut r = rng();
        let trials = 30_000;
        let mut first_small = 0;
        for _ in 0..trials {
            let v = sample_distinct(100, 10, &mut r);
            if v[0] < 50 {
                first_small += 1;
            }
        }
        let p = first_small as f64 / trials as f64;
        assert!((p - 0.5).abs() < 0.03, "first-element small fraction {p}");
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn sample_distinct_overdraw_panics() {
        let mut r = rng();
        sample_distinct(4, 5, &mut r);
    }
}
