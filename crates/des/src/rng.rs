//! Deterministic pseudo-random number generation.
//!
//! The simulator needs bit-for-bit reproducible runs across platforms and
//! library versions, so we implement the generators ourselves instead of
//! relying on an external crate whose stream may change between releases:
//!
//! * [`SplitMix64`] — the classic 64-bit mixing generator, used for seeding.
//! * [`Xoshiro256StarStar`] — Blackman & Vigna's xoshiro256**, the workhorse.
//! * [`RngStreams`] — derives independent, stably-numbered streams from one
//!   master seed (one stream per stochastic component of the model), so that
//!   changing how often one component draws does not perturb the others.

/// SplitMix64: a tiny, high-quality 64-bit generator.
///
/// Primarily used to expand a single `u64` seed into the larger state of
/// [`Xoshiro256StarStar`], as recommended by its authors.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256**: fast, 256-bit state, passes BigCrush.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion (never yields the forbidden all-zero
    /// state).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 is a bijection over a full-period sequence, so four
        // consecutive outputs are never all zero, but guard anyway.
        if s == [0, 0, 0, 0] {
            return Xoshiro256StarStar {
                s: [0x1, 0x9E3779B9, 0x7F4A7C15, 0xBF58476D],
            };
        }
        Xoshiro256StarStar { s }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic source of uniform 64-bit words, plus the derived draws
/// every model component uses.
///
/// The derived methods (`next_f64`, `next_below`, ...) are provided here —
/// in exactly one place — so a buffered source ([`BufferedRng`]) and the
/// bare generator ([`Xoshiro256StarStar`]) produce bit-identical draws from
/// the same word sequence by construction.
pub trait RandomSource {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Fill `out` with uniform words, in stream order (the batched-refill
    /// primitive: one tight loop instead of a call per word).
    fn fill_u64(&mut self, out: &mut [u64]) {
        for w in out {
            *w = self.next_u64();
        }
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; (1/2^53) spacing.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased uniform integer in `[0, bound)` via Lemire's method with
    /// rejection.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Fast path for powers of two.
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Lazy threshold: the rejection test only matters when the low
        // 64 bits fall below `bound` (probability bound / 2^64), so the
        // u64 division computing the threshold is deferred to that
        // vanishingly rare branch. The draw sequence is identical to the
        // eager form because `low >= bound` implies `low >= threshold`.
        let mut m = (self.next_u64() as u128) * (bound as u128);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = (self.next_u64() as u128) * (bound as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    fn next_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range_inclusive: lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }
}

impl RandomSource for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }
}

/// Words buffered per [`BufferedRng`] refill.
const RNG_BLOCK: usize = 16;

/// A [`Xoshiro256StarStar`] behind a refill buffer: raw words are produced
/// `RNG_BLOCK` at a time in one tight loop and served from the buffer.
///
/// Buffering changes *when* words are generated, never their order, so
/// every draw derived through [`RandomSource`] is bit-identical to the same
/// call sequence against the bare generator — seeds, CRN pairing, and
/// golden traces are untouched. Use it for a stream whose draws interleave
/// several distributions (e.g. the workload generator), where a
/// per-distribution batch buffer could not preserve the draw order.
#[derive(Debug, Clone)]
pub struct BufferedRng {
    inner: Xoshiro256StarStar,
    buf: [u64; RNG_BLOCK],
    pos: usize,
}

impl BufferedRng {
    /// Wrap `inner`; the first draw triggers the first refill.
    #[must_use]
    pub fn new(inner: Xoshiro256StarStar) -> Self {
        BufferedRng {
            inner,
            buf: [0; RNG_BLOCK],
            pos: RNG_BLOCK,
        }
    }

    #[cold]
    fn refill(&mut self) {
        for w in &mut self.buf {
            *w = self.inner.next_u64();
        }
        self.pos = 0;
    }
}

impl RandomSource for BufferedRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == RNG_BLOCK {
            self.refill();
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// Batched fill that drains the buffer, then generates whole blocks
    /// straight into `out`, refilling only for the final partial block.
    ///
    /// State-equivalent to calling [`RandomSource::next_u64`] `out.len()`
    /// times: the words, their order, and the buffer/generator state left
    /// behind are all bit-identical (a full block served through the buffer
    /// ends with the buffer exhausted, which is indistinguishable from
    /// having bypassed it).
    fn fill_u64(&mut self, out: &mut [u64]) {
        let avail = RNG_BLOCK - self.pos;
        let take = avail.min(out.len());
        out[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
        self.pos += take;
        let out = &mut out[take..];
        let mut chunks = out.chunks_exact_mut(RNG_BLOCK);
        for chunk in &mut chunks {
            for w in chunk {
                *w = self.inner.next_u64();
            }
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            self.refill();
            rest.copy_from_slice(&self.buf[..rest.len()]);
            self.pos = rest.len();
        }
    }
}

/// Derive a seed from a base seed and a hierarchical path of tags
/// (splitmix-style mixing, one round per path element).
///
/// This is the foundation of the replication layer's seed discipline:
/// every `(domain, coordinate, ..., replication)` path yields an
/// independent stream, while identical paths always yield identical
/// streams — which is what lets common-random-numbers (CRN) experiments
/// hand the *same* workload stream to different algorithms by simply
/// deriving it from an algorithm-free path.
///
/// Each level folds the tag and its depth into the accumulated state
/// before one SplitMix64 output round, so `[a, b]` and `[b, a]` (and
/// prefix-sharing paths) land in unrelated parts of the seed space.
#[must_use]
pub fn derive_seed(base: u64, path: &[u64]) -> u64 {
    let mut acc = SplitMix64::new(base).next_u64();
    for (depth, &tag) in path.iter().enumerate() {
        let level = acc
            ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ (depth as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        acc = SplitMix64::new(level).next_u64();
    }
    acc
}

/// Derive the seed for one experiment grid point: `(series, mpl,
/// replication)` under a base seed.
///
/// Replications are independent streams; holding `replication` fixed and
/// varying `series` gives the distinct-but-aligned seeds a CRN design
/// needs (callers that want *shared* streams across series pass a fixed
/// series tag instead).
#[must_use]
pub fn derive_point_seed(base: u64, series: u64, mpl: u64, replication: u64) -> u64 {
    derive_seed(base, &[series, mpl, replication])
}

/// Named, independent random-number streams derived from one master seed.
///
/// Stream identifiers are stable constants chosen by the caller; the same
/// `(master_seed, stream_id)` pair always produces the same stream.
#[derive(Debug, Clone, Copy)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Create the stream family for `master` seed.
    #[must_use]
    pub fn new(master: u64) -> Self {
        RngStreams { master }
    }

    /// Derive the generator for `stream_id`.
    #[must_use]
    pub fn stream(&self, stream_id: u64) -> Xoshiro256StarStar {
        // Mix the stream id through SplitMix64 so that adjacent ids yield
        // uncorrelated seeds.
        let mut sm = SplitMix64::new(self.master ^ stream_id.wrapping_mul(0xA24B_AED4_963E_E407));
        Xoshiro256StarStar::seed_from_u64(sm.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain C source.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_centered() {
        let mut r = Xoshiro256StarStar::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            let x = r.next_below(7) as usize;
            counts[x] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_below_power_of_two() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(r.next_below(8) < 8);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut r = Xoshiro256StarStar::seed_from_u64(5);
        r.next_below(0);
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = r.next_range_inclusive(4, 12);
            assert!((4..=12).contains(&x));
            saw_lo |= x == 4;
            saw_hi |= x == 12;
        }
        assert!(saw_lo && saw_hi, "endpoints should be reachable");
    }

    #[test]
    fn range_single_point() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        assert_eq!(r.next_range_inclusive(9, 9), 9);
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut r = Xoshiro256StarStar::seed_from_u64(3);
        assert!(!r.next_bool(0.0));
        assert!(r.next_bool(1.0));
        assert!(!r.next_bool(-0.5));
        assert!(r.next_bool(1.5));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = Xoshiro256StarStar::seed_from_u64(3);
        let hits = (0..100_000).filter(|_| r.next_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn derive_seed_is_deterministic_and_path_sensitive() {
        assert_eq!(derive_seed(1, &[2, 3, 4]), derive_seed(1, &[2, 3, 4]));
        assert_ne!(derive_seed(1, &[2, 3, 4]), derive_seed(1, &[2, 3, 5]));
        assert_ne!(derive_seed(1, &[2, 3, 4]), derive_seed(2, &[2, 3, 4]));
        // Order within the path matters.
        assert_ne!(derive_seed(1, &[2, 3]), derive_seed(1, &[3, 2]));
        // A longer path is not a continuation of the shorter one's value.
        assert_ne!(derive_seed(1, &[2]), derive_seed(1, &[2, 0]));
    }

    #[test]
    fn derive_point_seed_matches_generic_derivation() {
        assert_eq!(
            derive_point_seed(0xC0FFEE, 1, 25, 3),
            derive_seed(0xC0FFEE, &[1, 25, 3])
        );
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let streams = RngStreams::new(0xDEADBEEF);
        let mut s0a = streams.stream(0);
        let mut s0b = streams.stream(0);
        let mut s1 = streams.stream(1);
        assert_eq!(s0a.next_u64(), s0b.next_u64());
        // Stream 1 should not mirror stream 0.
        let mut same = 0;
        for _ in 0..100 {
            if s0a.next_u64() == s1.next_u64() {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }
}
