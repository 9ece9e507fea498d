//! The transaction generator.
//!
//! Draws transaction specs according to [`Params`]: readset size uniform on
//! `[min_size, max_size]`, objects uniform without replacement over the
//! database, and each read written with probability `write_prob`.

use ccsim_des::{
    sample_distinct_into, BufferedRng, RandomSource, UniformInclusive, Xoshiro256StarStar,
};

use crate::classes::{class_table, TxnClass};
use crate::params::Params;
use crate::spec::TxnSpec;
use crate::types::ObjId;

/// Generates [`TxnSpec`]s from a dedicated random stream.
#[derive(Debug, Clone)]
pub struct Generator {
    db_size: u64,
    classes: Vec<(TxnClass, UniformInclusive)>,
    /// Cumulative weight boundaries, normalized to sum 1.
    cum_weights: Vec<f64>,
    /// The workload stream behind a refill buffer: class, size, access,
    /// and write draws interleave on this one stream, so buffering raw
    /// words (rather than per-distribution variates) is what keeps the
    /// draw order — and thus every spec — bit-identical to the unbuffered
    /// generator.
    rng: BufferedRng,
    /// Reused by every uniform draw so steady-state generation is
    /// allocation-free.
    scratch: Vec<u64>,
    /// Raw-word buffer for the batched Bernoulli write flags, reused
    /// across specs.
    word_scratch: Vec<u64>,
}

impl Generator {
    /// Create a generator for the given parameters, drawing from `rng`.
    ///
    /// # Panics
    /// Panics if the parameters fail [`Params::validate`] — construct from
    /// validated parameters.
    #[must_use]
    pub fn new(params: &Params, rng: Xoshiro256StarStar) -> Self {
        params
            .validate()
            .expect("Generator requires validated parameters");
        let table = class_table(params);
        let total: f64 = table.iter().map(|c| c.weight).sum();
        let mut acc = 0.0;
        let cum_weights: Vec<f64> = table
            .iter()
            .map(|c| {
                acc += c.weight / total;
                acc
            })
            .collect();
        let classes = table
            .into_iter()
            .map(|c| {
                let dist = UniformInclusive::new(c.min_size, c.max_size);
                (c, dist)
            })
            .collect();
        Generator {
            db_size: params.db_size,
            classes,
            cum_weights,
            rng: BufferedRng::new(rng),
            scratch: Vec::new(),
            word_scratch: Vec::new(),
        }
    }

    /// Draw `n` raw words into the word buffer and return them.
    ///
    /// The batched-Bernoulli primitive: `n` calls to
    /// [`RandomSource::next_bool`] with `p ∈ (0, 1)` consume exactly one
    /// word each, so pulling the words in one [`RandomSource::fill_u64`]
    /// and comparing afterwards yields bit-identical flags without a
    /// buffer-position check per draw.
    fn draw_words(&mut self, n: usize) -> &[u64] {
        self.word_scratch.resize(n, 0);
        self.rng.fill_u64(&mut self.word_scratch);
        &self.word_scratch
    }

    /// The `u64 → [0,1)` mapping of [`RandomSource::next_f64`], applied to
    /// an already-drawn word.
    #[inline]
    fn word_to_f64(w: u64) -> f64 {
        (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draw the next transaction spec.
    pub fn next_spec(&mut self) -> TxnSpec {
        self.next_spec_with_class().1
    }

    /// Draw the next transaction spec with its class index (0 = the
    /// primary Table-1 class). Single-class workloads consume no extra
    /// randomness, so the paper's runs are unaffected by this extension.
    pub fn next_spec_with_class(&mut self) -> (usize, TxnSpec) {
        self.next_spec_with_class_reusing(Vec::new(), Vec::new())
    }

    /// As [`Generator::next_spec_with_class`], rebuilding the spec inside
    /// the passed buffers (cleared first) so a caller that retires one
    /// transaction per draw can recycle its allocations. Consumes identical
    /// randomness.
    pub fn next_spec_with_class_reusing(
        &mut self,
        mut reads: Vec<ObjId>,
        mut writes: Vec<bool>,
    ) -> (usize, TxnSpec) {
        let class_ix = if self.classes.len() == 1 {
            0
        } else {
            let u = self.rng.next_f64();
            self.cum_weights
                .iter()
                .position(|&c| u < c)
                .unwrap_or(self.classes.len() - 1)
        };
        let (class, size_dist) = self.classes[class_ix];
        let size = size_dist.sample(&mut self.rng) as usize;
        reads.clear();
        sample_distinct_into(self.db_size, size, &mut self.rng, &mut self.scratch);
        reads.extend(self.scratch.iter().copied().map(ObjId));
        writes.clear();
        // Batched Bernoulli write flags: degenerate probabilities consume
        // no randomness (matching `next_bool`); otherwise one word per
        // access, drawn in a single refill and compared branchlessly.
        let p = class.write_prob;
        if p <= 0.0 {
            writes.resize(size, false);
        } else if p >= 1.0 {
            writes.resize(size, true);
        } else {
            let words = self.draw_words(size);
            writes.extend(words.iter().map(|&w| Self::word_to_f64(w) < p));
        }
        (class_ix, TxnSpec::new(reads, writes))
    }

    /// Number of transaction classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccsim_des::RngStreams;

    fn gen_with(params: &Params, seed: u64) -> Generator {
        Generator::new(params, RngStreams::new(seed).stream(1))
    }

    #[test]
    fn sizes_respect_bounds() {
        let p = Params::paper_baseline();
        let mut g = gen_with(&p, 1);
        for _ in 0..1000 {
            let s = g.next_spec();
            assert!((4..=12).contains(&s.num_reads()));
            assert!(s.num_writes() <= s.num_reads());
        }
    }

    #[test]
    fn mean_size_matches_tran_size() {
        let p = Params::paper_baseline();
        let mut g = gen_with(&p, 2);
        let n = 20_000;
        let total: usize = (0..n).map(|_| g.next_spec().num_reads()).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 8.0).abs() < 0.1, "mean readset size {mean}");
    }

    #[test]
    fn write_fraction_matches_write_prob() {
        let p = Params::paper_baseline();
        let mut g = gen_with(&p, 3);
        let mut reads = 0usize;
        let mut writes = 0usize;
        for _ in 0..20_000 {
            let s = g.next_spec();
            reads += s.num_reads();
            writes += s.num_writes();
        }
        let frac = writes as f64 / reads as f64;
        assert!((frac - 0.25).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn objects_are_distinct_and_in_range() {
        let p = Params::paper_baseline();
        let mut g = gen_with(&p, 4);
        for _ in 0..1000 {
            let s = g.next_spec();
            let mut ids: Vec<u64> = s.reads().iter().map(|o| o.0).collect();
            ids.sort_unstable();
            let len = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), len);
            assert!(ids.iter().all(|&o| o < 1000));
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let p = Params::paper_baseline();
        let mut a = gen_with(&p, 42);
        let mut b = gen_with(&p, 42);
        for _ in 0..100 {
            assert_eq!(a.next_spec(), b.next_spec());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = Params::paper_baseline();
        let mut a = gen_with(&p, 1);
        let mut b = gen_with(&p, 2);
        let identical = (0..100).filter(|_| a.next_spec() == b.next_spec()).count();
        assert!(identical < 5);
    }

    #[test]
    fn class_frequencies_match_weights() {
        use crate::classes::TxnClass;
        let mut p = Params::paper_baseline();
        p.primary_weight = 3.0;
        p.extra_classes.push(TxnClass {
            weight: 1.0,
            min_size: 40,
            max_size: 60,
            write_prob: 0.5,
        });
        let mut g = gen_with(&p, 9);
        assert_eq!(g.num_classes(), 2);
        let n = 20_000;
        let mut large = 0usize;
        for _ in 0..n {
            let (class, spec) = g.next_spec_with_class();
            match class {
                0 => assert!((4..=12).contains(&spec.num_reads())),
                1 => {
                    large += 1;
                    assert!((40..=60).contains(&spec.num_reads()));
                }
                other => panic!("unknown class {other}"),
            }
        }
        let frac = large as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "large fraction {frac}");
    }

    #[test]
    fn class_write_probs_are_per_class() {
        use crate::classes::TxnClass;
        let mut p = Params::paper_baseline();
        p.write_prob = 0.0; // primary class read-only
        p.extra_classes.push(TxnClass {
            weight: 1.0,
            min_size: 4,
            max_size: 12,
            write_prob: 1.0, // second class all-write
        });
        let mut g = gen_with(&p, 10);
        for _ in 0..2_000 {
            let (class, spec) = g.next_spec_with_class();
            if class == 0 {
                assert!(spec.is_read_only());
            } else {
                assert_eq!(spec.num_writes(), spec.num_reads());
            }
        }
    }

    #[test]
    fn single_class_consumes_no_class_randomness() {
        // The class-selection draw is skipped for single-class workloads,
        // so specs are identical with or without the classes machinery.
        let p = Params::paper_baseline();
        let mut a = gen_with(&p, 42);
        let mut b = gen_with(&p, 42);
        for _ in 0..100 {
            let (class, spec) = a.next_spec_with_class();
            assert_eq!(class, 0);
            assert_eq!(spec, b.next_spec());
        }
    }

    #[test]
    #[should_panic(expected = "validated parameters")]
    fn rejects_invalid_params() {
        let mut p = Params::paper_baseline();
        p.write_prob = 2.0;
        let _ = gen_with(&p, 1);
    }
}
