//! Property-based tests for the DES engine.

use ccsim_des::{
    derive_seed, sample_distinct_into, BufferedRng, Calendar, ExpBlock, RandomSource, SimDuration,
    SimTime, UniformBlock, Xoshiro256StarStar,
};
use proptest::prelude::*;

proptest! {
    /// Popping the calendar always yields events in nondecreasing time order,
    /// regardless of insertion order.
    #[test]
    fn calendar_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = cal.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Events at identical timestamps come out in insertion (FIFO) order.
    #[test]
    fn calendar_fifo_at_equal_times(n in 1usize..100, t in 0u64..1_000) {
        let mut cal = Calendar::new();
        for i in 0..n {
            cal.schedule(SimTime::from_micros(t), i);
        }
        let mut expected = 0;
        while let Some((_, e)) = cal.pop() {
            prop_assert_eq!(e, expected);
            expected += 1;
        }
    }

    /// Popping a prefix leaves exactly the rest pending: `len` tracks every
    /// pop, and the remainder drains as the sorted tail of the input.
    #[test]
    fn calendar_len_tracks_partial_drain(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        take in 0usize..100,
    ) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_micros(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort_unstable();
        let take = take.min(times.len());
        for (k, &(t, i)) in expected[..take].iter().enumerate() {
            prop_assert_eq!(cal.pop(), Some((SimTime::from_micros(t), i)));
            prop_assert_eq!(cal.len(), times.len() - k - 1);
        }
        let rest: Vec<(u64, usize)> = std::iter::from_fn(|| cal.pop())
            .map(|(t, i)| (t.as_micros(), i))
            .collect();
        prop_assert_eq!(&rest[..], &expected[take..]);
        prop_assert!(cal.is_empty());
        prop_assert_eq!(cal.peak_len(), times.len());
    }

    /// Model-based fuzz of interleaved schedules, at-`now` bursts and pops
    /// against a reference priority queue (a plain sorted scan), with
    /// schedule offsets inside the ~262 ms near-horizon lane.
    #[test]
    fn calendar_interleaved_model(
        ops in proptest::collection::vec((0u8..8, 0u64..10_000, 0usize..64), 1..400),
    ) {
        interleaved_model(&ops)?;
    }

    /// The interleaved model again, but with schedule offsets spanning a
    /// full second — far past the near-horizon lane — so events straddle
    /// the lane/heap boundary and draining pops advance the clock far
    /// enough to reuse ring buckets (horizon rollover). The reference scan
    /// is tier-blind, so any cross-tier ordering bug shows up as a
    /// divergence.
    #[test]
    fn calendar_interleaved_model_two_tier(
        ops in proptest::collection::vec((0u8..8, 0u64..1_000_000, 0usize..64), 1..400),
    ) {
        interleaved_model(&ops)?;
    }

    /// Lock-grant wakeups: bursts scheduled at `now` right after a pop —
    /// which parks the lane scan on the current bucket and heapifies it —
    /// must sift into that heap and deliver before every later event, in
    /// FIFO order among themselves.
    #[test]
    fn calendar_at_now_bursts_into_heaped_bucket(
        offsets in proptest::collection::vec(0u64..1_024, 2..64),
        bursts in proptest::collection::vec(1usize..6, 1..16),
    ) {
        let mut cal = Calendar::new();
        // All within one or two 1.05 ms buckets of a common base.
        let base = SimTime::from_micros(5_000);
        let mut pending: Vec<(SimTime, usize)> = Vec::new();
        for (i, &o) in offsets.iter().enumerate() {
            let at = base + SimDuration::from_micros(o);
            cal.schedule(at, i);
            pending.push((at, i));
        }
        let mut next_payload = offsets.len();
        for burst in bursts {
            let Some(i) = model_min(&pending) else { break };
            prop_assert_eq!(cal.pop(), Some(pending.remove(i)));
            let now = cal.now();
            for _ in 0..burst {
                cal.schedule(now, next_payload);
                pending.push((now, next_payload));
                next_payload += 1;
            }
        }
        while let Some(i) = model_min(&pending) {
            prop_assert_eq!(cal.pop(), Some(pending.remove(i)));
        }
        prop_assert_eq!(cal.pop(), None);
        prop_assert_eq!(cal.stats().heap_schedules, 0);
    }

    /// `peek` against a reference queue, two-tier and heap-only, over
    /// interleaved schedules (near and far), at-`now` bursts, pops and
    /// peeks: whatever a peek returns is pending, and when nothing is
    /// scheduled between a peek that returns an event and the next pop,
    /// that pop delivers the same event. A heap-only calendar always
    /// answers.
    #[test]
    fn calendar_peek_names_the_next_pop(
        heap_only in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, 0u64..600_000, 0usize..64), 1..400),
    ) {
        let mut cal = if heap_only { Calendar::heap_only() } else { Calendar::new() };
        let mut model: Vec<(SimTime, usize)> = Vec::new();
        let mut next_payload = 0usize;
        let mut peeked = None;
        for &(kind, t, sel) in &ops {
            match kind {
                0..=2 => {
                    // Mostly near the clock, so lane buckets fill densely.
                    let at = cal.now() + SimDuration::from_micros(if sel % 4 == 0 { t } else { t % 2_048 });
                    cal.schedule(at, next_payload);
                    model.push((at, next_payload));
                    next_payload += 1;
                    peeked = None;
                }
                3 => {
                    for _ in 0..=sel % 4 {
                        cal.schedule(cal.now(), next_payload);
                        model.push((cal.now(), next_payload));
                        next_payload += 1;
                    }
                    peeked = None;
                }
                4 | 5 => {
                    let popped = model_min(&model).map(|i| model.remove(i));
                    prop_assert_eq!(cal.pop(), popped);
                    if let Some(p) = peeked.take() {
                        prop_assert_eq!(Some(p), popped);
                    }
                }
                _ => {
                    let p = cal.peek();
                    if let Some(p) = p {
                        prop_assert!(model.contains(&p), "peeked {:?} is not pending", p);
                    }
                    if heap_only {
                        prop_assert_eq!(p.is_some(), !model.is_empty());
                    }
                    peeked = p;
                }
            }
        }
        while let Some(i) = model_min(&model) {
            if let Some(p) = cal.peek() {
                prop_assert_eq!(p, model[i]);
            }
            prop_assert_eq!(cal.pop(), Some(model.remove(i)));
        }
        prop_assert_eq!(cal.peek(), None);
    }

    /// `sample_distinct_into` yields exactly `k` distinct in-range values.
    #[test]
    fn sample_distinct_invariants(seed in any::<u64>(), n in 1u64..5_000, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n as usize).max(1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut v = vec![u64::MAX; 3];
        sample_distinct_into(n, k, &mut rng, &mut v);
        prop_assert_eq!(v.len(), k);
        prop_assert!(v.iter().all(|&x| x < n));
        let mut s = v;
        s.sort_unstable();
        s.dedup();
        prop_assert_eq!(s.len(), k);
    }

    /// Hierarchical seed derivation never collides across an experiment-
    /// sized grid, for any base seed: the sweep runner's control seeds
    /// (`[2, series, mpl, rep]`, 3 series × 7 mpls × 10 replications) and
    /// workload seeds (`[1, mpl, rep]`) are 280 distinct values.
    #[test]
    fn derive_seed_collision_free_on_grid(base in any::<u64>()) {
        let mpls = [5u64, 10, 25, 50, 75, 100, 200];
        let mut seeds = Vec::with_capacity(4 * mpls.len() * 10);
        for &mpl in &mpls {
            for rep in 0..10u64 {
                seeds.push(derive_seed(base, &[1, mpl, rep]));
                for series in 1..=3u64 {
                    seeds.push(derive_seed(base, &[2, series, mpl, rep]));
                }
            }
        }
        let n = seeds.len();
        seeds.sort_unstable();
        seeds.dedup();
        prop_assert_eq!(seeds.len(), n, "seed collision inside one grid");
    }

    /// Derivation is a pure function of `(base, path)`.
    #[test]
    fn derive_seed_deterministic(
        base in any::<u64>(),
        path in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        prop_assert_eq!(derive_seed(base, &path), derive_seed(base, &path));
    }

    /// Flipping only the replication index scrambles roughly half the seed
    /// bits (avalanche): adjacent replications get unrelated streams.
    #[test]
    fn derive_seed_avalanche_on_replication(
        base in any::<u64>(),
        series in 1u64..9,
        mpl in 1u64..256,
    ) {
        let mut total = 0u32;
        const PAIRS: u64 = 16;
        for rep in 0..PAIRS {
            let a = derive_seed(base, &[2, series, mpl, rep]);
            let b = derive_seed(base, &[2, series, mpl, rep + 1]);
            total += (a ^ b).count_ones();
        }
        let mean = f64::from(total) / PAIRS as f64;
        // A perfect mixer averages 32 flipped bits; [24, 40] leaves ~5 sigma
        // of slack while catching affine or low-entropy derivations.
        prop_assert!((24.0..=40.0).contains(&mean), "mean hamming {mean}");
    }

    /// `BufferedRng::fill_u64` emits exactly the inner generator's word
    /// stream, for any interleaving of bulk fills and single draws and any
    /// chunk size relative to the 16-word buffer — partial drains, whole
    /// blocks served directly from the inner generator, and ragged tails
    /// that straddle a refill seam all included. Sizes 0..=40 span empty
    /// fills, sub-block, exactly-block, and multi-block-plus-tail requests.
    #[test]
    fn buffered_fill_matches_scalar_stream(
        seed in any::<u64>(),
        ops in proptest::collection::vec(0usize..=40, 1..30),
    ) {
        let mut buffered = BufferedRng::new(Xoshiro256StarStar::seed_from_u64(seed));
        let mut reference = Xoshiro256StarStar::seed_from_u64(seed);
        for size in ops {
            if size == 0 {
                // Interleave a scalar draw: the buffer position moves by
                // one, so subsequent fills start mid-block.
                prop_assert_eq!(buffered.next_u64(), reference.next_u64());
            } else {
                let mut got = vec![0u64; size];
                buffered.fill_u64(&mut got);
                let want: Vec<u64> = (0..size).map(|_| reference.next_u64()).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// `ExpBlock::fill` is bit-identical to the same number of scalar
    /// `sample` calls — values, word consumption, and the buffer state left
    /// behind — for any interleaving of batched and scalar draws across
    /// block-size boundaries and refill seams.
    #[test]
    fn exp_block_fill_matches_scalar(
        seed in any::<u64>(),
        mean_ms in 0u64..100_000,
        ops in proptest::collection::vec(0usize..=40, 1..30),
    ) {
        let mean = SimDuration::from_millis(mean_ms);
        let mut batched = ExpBlock::new(mean);
        let mut scalar = ExpBlock::new(mean);
        let mut rng_a = BufferedRng::new(Xoshiro256StarStar::seed_from_u64(seed));
        let mut rng_b = BufferedRng::new(Xoshiro256StarStar::seed_from_u64(seed));
        for size in ops {
            if size == 0 {
                // Interleaved scalar draw on both sides keeps the streams
                // aligned while shifting the batched side's buffer position.
                prop_assert_eq!(batched.sample(&mut rng_a), scalar.sample(&mut rng_b));
            } else {
                let mut got = vec![SimDuration::ZERO; size];
                batched.fill(&mut rng_a, &mut got);
                let want: Vec<SimDuration> =
                    (0..size).map(|_| scalar.sample(&mut rng_b)).collect();
                prop_assert_eq!(got, want);
            }
        }
        // Equal word consumption: the next draw from each stream agrees.
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// `UniformBlock::fill` is bit-identical to scalar `sample` calls for
    /// any bound (power-of-two mask path and Lemire rejection path alike)
    /// and any batched/scalar interleaving.
    #[test]
    fn uniform_block_fill_matches_scalar(
        seed in any::<u64>(),
        bound in 1u64..=u64::MAX,
        ops in proptest::collection::vec(0usize..=40, 1..30),
    ) {
        let mut batched = UniformBlock::new(bound);
        let mut scalar = UniformBlock::new(bound);
        let mut rng_a = BufferedRng::new(Xoshiro256StarStar::seed_from_u64(seed));
        let mut rng_b = BufferedRng::new(Xoshiro256StarStar::seed_from_u64(seed));
        for size in ops {
            if size == 0 {
                prop_assert_eq!(batched.sample(&mut rng_a), scalar.sample(&mut rng_b));
            } else {
                let mut got = vec![0u64; size];
                batched.fill(&mut rng_a, &mut got);
                let want: Vec<u64> = (0..size).map(|_| scalar.sample(&mut rng_b)).collect();
                prop_assert_eq!(got, want);
            }
        }
        prop_assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// Exponential draws are nonnegative and finite in integer µs.
    #[test]
    fn exponential_draws_valid(seed in any::<u64>(), mean_ms in 0u64..100_000) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mean = SimDuration::from_millis(mean_ms);
        for _ in 0..100 {
            let d = ccsim_des::sample_exponential(mean, &mut rng);
            if mean.is_zero() {
                prop_assert!(d.is_zero());
            }
            // 30x the mean is astronomically unlikely (p < 1e-13 per draw);
            // mostly this guards against sign/overflow bugs.
            prop_assert!(d.as_micros() <= mean.as_micros().saturating_mul(100).max(1_000_000_000));
        }
    }
}

/// Index of the reference queue's next event: minimum time, then earliest
/// insertion (FIFO at equal times).
fn model_min(model: &[(SimTime, usize)]) -> Option<usize> {
    model
        .iter()
        .enumerate()
        .min_by_key(|(i, (at, _))| (*at, *i))
        .map(|(i, _)| i)
}

/// Drive a calendar and a reference queue through `ops` — `(kind, offset,
/// burst)` triples — and require identical behaviour: kinds 0–3 schedule
/// at `now + offset`, 4–5 pop, 6 schedules a burst of up to four events at
/// `now` (lock-grant wakeups), and 7 compares occupancy. Then drain both
/// and check the tier counters partition the totals exactly.
fn interleaved_model(ops: &[(u8, u64, usize)]) -> Result<(), TestCaseError> {
    let mut cal = Calendar::new();
    let mut model: Vec<(SimTime, usize)> = Vec::new();
    let mut next_payload = 0usize;
    for &(kind, t, sel) in ops {
        match kind {
            // Schedule at or after the clock (the past is immutable).
            0..=3 => {
                let at = cal.now() + SimDuration::from_micros(t);
                cal.schedule(at, next_payload);
                model.push((at, next_payload));
                next_payload += 1;
            }
            // Pop must agree with the reference scan exactly.
            4 | 5 => match model_min(&model) {
                None => prop_assert_eq!(cal.pop(), None),
                Some(i) => prop_assert_eq!(cal.pop(), Some(model.remove(i))),
            },
            6 => {
                for _ in 0..=sel % 4 {
                    cal.schedule(cal.now(), next_payload);
                    model.push((cal.now(), next_payload));
                    next_payload += 1;
                }
            }
            // Occupancy bookkeeping survives the churn.
            _ => prop_assert_eq!(cal.len(), model.len()),
        }
    }
    prop_assert_eq!(cal.len(), model.len());
    // Drain: the full remaining order must match the reference.
    while let Some(i) = model_min(&model) {
        prop_assert_eq!(cal.pop(), Some(model.remove(i)));
    }
    prop_assert_eq!(cal.pop(), None);
    prop_assert!(cal.is_empty());
    // Tier accounting must exactly partition the totals: every schedule
    // went to exactly one tier, every pop was served from exactly one,
    // and every scheduled event was delivered.
    let s = cal.stats();
    prop_assert_eq!(s.lane_schedules + s.heap_schedules, s.schedules);
    prop_assert_eq!(s.lane_pops + s.heap_pops, s.pops);
    prop_assert_eq!(s.pops, s.schedules);
    prop_assert_eq!(s.schedules, next_payload as u64);
    Ok(())
}
