//! The event calendar: a priority queue of timestamped events.
//!
//! Events scheduled for the same instant are delivered in FIFO order of
//! scheduling (a monotone sequence number breaks ties), which makes
//! simulations fully deterministic.
//!
//! Internally the calendar is **two-tiered** (a calendar-queue / ladder
//! hybrid): a bounded ring of *near-horizon* time buckets fronting a
//! **4-ary min-heap** overflow tier:
//!
//! * Nodes are `(time, seq, event)` records ordered by `(time, seq)`; the
//!   payload rides inline, so a pop reads exactly the node it removes and
//!   touches no side table. The `seq` counter is global across both
//!   tiers, so FIFO tie-breaking is preserved no matter which tier an
//!   event lands in.
//! * Schedules within [`NEAR_BUCKETS`] buckets of the clock (each bucket
//!   spans `2^BUCKET_SHIFT` µs — a ~262 ms horizon) append to a ring
//!   bucket in O(1); everything farther out goes to the heap. In the
//!   paper's model the dominant traffic — CPU/disk service completions in
//!   the tens of milliseconds — lands in the lane, while second-scale
//!   think-time arrivals and batch boundaries take the heap. `pop`
//!   compares the lane's minimum against the heap's root and takes the
//!   global `(time, seq)` minimum, so delivery order is identical to a
//!   single heap.
//! * A drained lane bucket gives its allocation back when the min-scan
//!   walks past it, if that allocation is over [`RETAINED_BUCKET_CAP`]
//!   nodes. Ring slots are reused every rotation, and at million scale
//!   each passes through the dense window near the clock; without the
//!   bound every slot would keep the capacity it grew to there. Which
//!   events a bucket holds, and so delivery order, is unaffected.
//! * A 4-ary heap layout halves the tree depth of a binary heap, so the
//!   pop-side sift touches far less memory than `BinaryHeap` did.
//! * [`Calendar::peek`] answers, read-only, which event the next pop
//!   delivers when the heap's root and the parked lane bucket's root tell
//!   it, so a caller can prefetch for the next event while it handles the
//!   current one. It never scans.
//! * There is no cancellation: every scheduled event is delivered. A
//!   simulation that must ignore an event once it is delivered (a
//!   completion for an aborted attempt) tags the payload — the engine
//!   uses attempt epochs — and drops it on arrival.

use crate::time::SimTime;

/// Near-lane geometry: [`NEAR_BUCKETS`] ring slots of `2^BUCKET_SHIFT`
/// microseconds each — 256 buckets of ~1.05 ms cover a ~268 ms horizon.
const BUCKET_SHIFT: u32 = 10;
/// Number of buckets in the near-horizon ring.
const NEAR_BUCKETS: u64 = 256;
/// Capacity, in nodes, above which a drained lane bucket drops its
/// allocation when the min-scan walks past it (see [`Calendar::lane_min`]).
///
/// Basis: at the end of a 1 s exp-scale run (10^6 terminals, mpl 10^5)
/// 35 buckets near the clock hold 1,400–4,900 events each and the other
/// 221 about 18. Every ring slot passes through that dense window once a
/// rotation and grows to 4,096–8,192 node slots there; kept, that is
/// 60 MiB of capacity for ~105k live events. 256 nodes (8 KiB of 32-byte
/// nodes) is well above a sparse bucket's occupancy, and above the ~201
/// events the paper's configurations ever hold in the whole calendar, so
/// only buckets that grew in a dense window give their allocation back;
/// they regrow the next time their slot enters it.
const RETAINED_BUCKET_CAP: usize = 256;

/// Cumulative operation counters for one [`Calendar`], split by tier.
///
/// `lane_schedules + heap_schedules == schedules` and
/// `lane_pops + heap_pops == pops`; the lane/heap split shows how much
/// traffic the O(1) near-horizon lane absorbs vs the log-time heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CalendarStats {
    /// Total events scheduled.
    pub schedules: u64,
    /// Total events delivered by [`Calendar::pop`].
    pub pops: u64,
    /// Always 0: the calendar has no cancellation. Kept so that reports
    /// and archived counter dumps keep their shape.
    pub cancels: u64,
    /// Schedules that landed in the near-horizon lane.
    pub lane_schedules: u64,
    /// Schedules beyond the horizon, pushed to the overflow heap.
    pub heap_schedules: u64,
    /// Pops served from the near-horizon lane.
    pub lane_pops: u64,
    /// Pops served from the overflow heap.
    pub heap_pops: u64,
}

/// One calendar node: the ordering key plus the payload.
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Node<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// One ring bucket of the near-horizon lane. `bucket` is the *absolute*
/// bucket index currently mapped onto this ring slot (`u64::MAX` when
/// unused); a slot is remapped only once its old bucket lies in the
/// popped past, so it is always empty by then.
#[derive(Debug)]
struct LaneBucket<E> {
    bucket: u64,
    nodes: Vec<Node<E>>,
    /// Set when the min-scan first parks on this bucket: `nodes` is then
    /// a binary min-heap by `(time, seq)` — pops take the root, late
    /// schedules into the bucket sift in, both O(log bucket). Until then
    /// the bucket is a plain append vector. Without this, a bucket dense
    /// with same-millisecond events (a million-scale regime packs
    /// thousands into one bucket) would pay a full scan per pop —
    /// quadratic in bucket population. A sorted vector is no better: the
    /// model schedules lock-grant wakeups at the current instant, which
    /// insert mid-bucket and pay a memmove each.
    heaped: bool,
}

// -- per-bucket binary-heap primitives (by `(time, seq)` key) -----------

fn bucket_sift_up<E: Copy>(nodes: &mut [Node<E>], mut i: usize) {
    let node = nodes[i];
    let key = node.key();
    while i > 0 {
        let parent = (i - 1) / 2;
        if key < nodes[parent].key() {
            nodes[i] = nodes[parent];
            i = parent;
        } else {
            break;
        }
    }
    nodes[i] = node;
}

fn bucket_sift_down<E: Copy>(nodes: &mut [Node<E>], mut i: usize) {
    let len = nodes.len();
    let node = nodes[i];
    let key = node.key();
    loop {
        let mut child = 2 * i + 1;
        if child >= len {
            break;
        }
        if child + 1 < len && nodes[child + 1].key() < nodes[child].key() {
            child += 1;
        }
        if nodes[child].key() < key {
            nodes[i] = nodes[child];
            i = child;
        } else {
            break;
        }
    }
    nodes[i] = node;
}

fn bucket_heapify<E: Copy>(nodes: &mut [Node<E>]) {
    for i in (0..nodes.len() / 2).rev() {
        bucket_sift_down(nodes, i);
    }
}

fn bucket_pop_root<E: Copy>(nodes: &mut Vec<Node<E>>) -> Node<E> {
    let root = nodes.swap_remove(0);
    if !nodes.is_empty() {
        bucket_sift_down(nodes, 0);
    }
    root
}

/// A deterministic event calendar.
///
/// ```
/// use ccsim_des::{Calendar, SimTime};
///
/// let mut cal: Calendar<&str> = Calendar::new();
/// cal.schedule(SimTime::from_secs(2), "second");
/// cal.schedule(SimTime::from_secs(1), "first");
/// let (t, e) = cal.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_secs(1), "first"));
/// ```
pub struct Calendar<E> {
    heap: Vec<Node<E>>,
    /// When false, every schedule goes to the overflow heap — the
    /// single-tier baseline for ablation runs (see [`Calendar::heap_only`]).
    use_lane: bool,
    /// Near-horizon ring, indexed by `absolute_bucket % NEAR_BUCKETS`.
    lane: Vec<LaneBucket<E>>,
    /// Events currently stored in the lane.
    lane_len: usize,
    /// Scan cursor: no lane event sits in a bucket below this index.
    /// Lowered on schedule into an earlier bucket, advanced as the
    /// min-scan walks past drained buckets, keeping repeated scans
    /// amortized O(1).
    scan_from: u64,
    /// High-water mark of [`Calendar::len`] over the calendar's lifetime.
    peak_len: usize,
    next_seq: u64,
    now: SimTime,
    stats: CalendarStats,
}

impl<E: Copy> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> Calendar<E> {
    /// Create an empty calendar with the clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Calendar {
            heap: Vec::new(),
            use_lane: true,
            lane: (0..NEAR_BUCKETS)
                .map(|_| LaneBucket {
                    bucket: u64::MAX,
                    nodes: Vec::new(),
                    heaped: false,
                })
                .collect(),
            lane_len: 0,
            scan_from: 0,
            peak_len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            stats: CalendarStats::default(),
        }
    }

    /// Create an empty calendar that bypasses the near-horizon lane: every
    /// event lands in the overflow heap. Delivery order is identical to
    /// [`Calendar::new`] — `(time, seq)` decides in both tiers — so the
    /// only difference is cost. This is the single-tier baseline that
    /// ablation benchmarks measure the lane against; simulations have no
    /// reason to use it.
    #[must_use]
    pub fn heap_only() -> Self {
        Calendar {
            use_lane: false,
            ..Self::new()
        }
    }

    /// The current simulation time: the timestamp of the most recently
    /// popped event (zero before the first pop).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lane_len + self.heap.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes one pending event occupies: a node carries its `(time, seq)`
    /// key and the event inline, in either tier.
    #[must_use]
    pub const fn node_bytes() -> usize {
        size_of::<Node<E>>()
    }

    /// The most events ever pending at once (peak occupancy).
    #[must_use]
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Cumulative operation counters (schedules, pops, and the near-lane
    /// vs overflow-heap split).
    #[must_use]
    pub fn stats(&self) -> CalendarStats {
        self.stats
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current clock — the simulated past
    /// is immutable.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let bucket = at.as_micros() >> BUCKET_SHIFT;
        let cur = self.now.as_micros() >> BUCKET_SHIFT;
        self.stats.schedules += 1;
        let node = Node { at, seq, event };
        if self.use_lane && bucket < cur + NEAR_BUCKETS {
            self.stats.lane_schedules += 1;
            self.lane_len += 1;
            if bucket < self.scan_from {
                self.scan_from = bucket;
            }
            let ring = &mut self.lane[(bucket % NEAR_BUCKETS) as usize];
            if ring.bucket != bucket {
                // Ring-slot reuse after a full rotation: the old bucket is
                // ≥ NEAR_BUCKETS behind the clock, entirely popped.
                debug_assert!(ring.nodes.is_empty(), "remapped a non-empty bucket");
                ring.heaped = false;
                ring.bucket = bucket;
            }
            ring.nodes.push(node);
            if ring.heaped {
                let last = ring.nodes.len() - 1;
                bucket_sift_up(&mut ring.nodes, last);
            }
        } else {
            self.stats.heap_schedules += 1;
            self.heap.push(node);
            self.sift_up(self.heap.len() - 1);
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Locate the lane's minimum: `(ring index, key)` — the minimum is
    /// always the parked bucket's heap root.
    ///
    /// Scans forward from the cursor and parks it on the first non-empty
    /// bucket, heapifying that bucket on first touch so the minimum — and
    /// every subsequent pop from the bucket — is a root read, not a scan.
    /// All lane events sit in `[clock bucket, clock bucket +
    /// NEAR_BUCKETS)` and none below the cursor, so the walk is bounded.
    /// A drained bucket the walk passes drops an allocation of more than
    /// [`RETAINED_BUCKET_CAP`] nodes.
    fn lane_min(&mut self) -> Option<(usize, (SimTime, u64))> {
        if self.lane_len == 0 {
            return None;
        }
        let cur = self.now.as_micros() >> BUCKET_SHIFT;
        let mut b = self.scan_from.max(cur);
        while b < cur + NEAR_BUCKETS {
            let ix = (b % NEAR_BUCKETS) as usize;
            let ring = &mut self.lane[ix];
            if ring.bucket == b {
                if !ring.nodes.is_empty() {
                    if !ring.heaped {
                        bucket_heapify(&mut ring.nodes);
                        ring.heaped = true;
                    }
                    self.scan_from = b;
                    return Some((ix, ring.nodes[0].key()));
                }
                ring.heaped = false;
                if ring.nodes.capacity() > RETAINED_BUCKET_CAP {
                    ring.nodes = Vec::new();
                }
            }
            b += 1;
        }
        unreachable!(
            "lane accounting broken: {} events unreachable within the horizon",
            self.lane_len
        );
    }

    /// The event the next [`Calendar::pop`] delivers if nothing is
    /// scheduled before it, when that is known without a scan; otherwise
    /// `None`.
    ///
    /// Reads two roots and changes nothing: the heap's root, and the root
    /// of the lane bucket the min-scan last parked on. When that bucket has
    /// drained (or a schedule into an earlier bucket moved the scan cursor
    /// onto a bucket not yet heapified) while other lane events remain,
    /// only the scan in `pop` could find the lane's minimum, so the answer
    /// is `None`. Whatever is returned is pending. Meant for look-ahead
    /// hints: a caller may act on the answer only in ways that cannot
    /// change what the simulation computes.
    #[inline]
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, E)> {
        let heap = self.heap.first();
        let lane = if self.lane_len == 0 {
            None
        } else {
            let b = self.scan_from.max(self.now.as_micros() >> BUCKET_SHIFT);
            let ring = &self.lane[(b % NEAR_BUCKETS) as usize];
            if ring.bucket != b || !ring.heaped {
                return None;
            }
            Some(ring.nodes.first()?)
        };
        let node = match (lane, heap) {
            (Some(l), Some(h)) if h.key() < l.key() => h,
            (Some(l), _) => l,
            (None, h) => h?,
        };
        Some((node.at, node.event))
    }

    /// Remove and return the earliest event together with its timestamp,
    /// advancing the clock.
    ///
    /// The winner is the global `(time, seq)` minimum across both tiers —
    /// `seq` is assigned at schedule time regardless of tier, so same-time
    /// events keep strict FIFO order even when one sits in the lane and
    /// the other in the heap.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let lane = self.lane_min();
        let heap = self.heap.first().map(Node::key);
        let from_lane = match (lane, heap) {
            (Some((_, lk)), Some(hk)) => lk < hk,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let node = match lane {
            Some((ix, _)) if from_lane => {
                self.stats.lane_pops += 1;
                self.lane_len -= 1;
                bucket_pop_root(&mut self.lane[ix].nodes)
            }
            _ => {
                self.stats.heap_pops += 1;
                self.remove_root()
            }
        };
        self.stats.pops += 1;
        debug_assert!(node.at >= self.now, "event calendar went backwards");
        self.now = node.at;
        Some((node.at, node.event))
    }

    // -- 4-ary heap primitives ------------------------------------------

    fn remove_root(&mut self) -> Node<E> {
        let last = self.heap.pop().expect("remove_root on empty heap");
        match self.heap.first_mut() {
            Some(root) => {
                let root = std::mem::replace(root, last);
                self.sift_down(0);
                root
            }
            None => last,
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let node = self.heap[i];
        let key = node.key();
        while i > 0 {
            let parent = (i - 1) / 4;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = node;
    }

    /// Bottom-up sift: the displaced node comes from the heap's last
    /// position, so it almost always belongs near the bottom again. Descend
    /// along the min-child path unconditionally (skipping the
    /// node-vs-child test per level that would nearly never terminate
    /// early), then bubble the node back up the few levels it needs.
    fn sift_down(&mut self, start: usize) {
        let len = self.heap.len();
        let node = self.heap[start];
        let mut i = start;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let end = (first + 4).min(len);
            let mut min = first;
            let mut min_key = self.heap[first].key();
            for c in first + 1..end {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        // `i` is now a leaf of the min-child path; bubble `node` up to its
        // place (never above `start`, whose subtree it came to fill).
        let key = node.key();
        while i > start {
            let parent = (i - 1) / 4;
            if key < self.heap[parent].key() {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn node_with_a_16_byte_payload_is_32_bytes() {
        // The engine's `Event` is 16 bytes; a node must not grow past two
        // per cache line, or every pending event at scale pays for it.
        assert_eq!(std::mem::size_of::<Node<[u64; 2]>>(), 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(3), 3u32);
        cal.schedule(SimTime::from_secs(1), 1u32);
        cal.schedule(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            cal.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        assert_eq!(cal.now(), SimTime::ZERO);
        cal.pop();
        assert_eq!(cal.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(5), ());
        cal.pop();
        cal.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn schedule_same_time_as_now_is_ok() {
        let mut cal = Calendar::new();
        cal.schedule(SimTime::from_secs(1), 1);
        cal.pop();
        // An event may fire "now" (zero-delay continuation).
        cal.schedule(cal.now() + SimDuration::ZERO, 2);
        assert_eq!(cal.pop().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn len_and_peak_track_both_tiers() {
        let mut cal = Calendar::new();
        for i in 0..5 {
            cal.schedule(SimTime::from_millis(100 * i + 1), i);
        }
        assert_eq!(cal.len(), 5);
        assert_eq!(cal.stats().lane_schedules, 3);
        assert_eq!(cal.stats().heap_schedules, 2);
        cal.pop();
        cal.pop();
        assert_eq!(cal.len(), 3);
        assert_eq!(cal.peak_len(), 5);
        assert!(!cal.is_empty());
        while cal.pop().is_some() {}
        assert!(cal.is_empty());
        assert_eq!(cal.stats().cancels, 0);
    }

    #[test]
    fn cross_tier_same_time_ties_break_fifo() {
        // An event scheduled beyond the horizon (heap tier) and one
        // scheduled later — after the clock advanced — at the *same*
        // instant (lane tier) must still deliver in schedule order: the
        // seq counter is global across tiers.
        let mut cal = Calendar::new();
        let t = SimTime::from_millis(300); // beyond the ~268 ms horizon at clock 0
        cal.schedule(t, "heap-first");
        cal.schedule(SimTime::from_millis(100), "filler");
        assert_eq!(cal.pop().map(|(_, e)| e), Some("filler"));
        // Clock at 100 ms: 300 ms is now inside the horizon.
        cal.schedule(t, "lane-second");
        assert_eq!(cal.stats().heap_schedules, 1);
        assert_eq!(cal.stats().lane_schedules, 2);
        assert_eq!(cal.pop(), Some((t, "heap-first")));
        assert_eq!(cal.pop(), Some((t, "lane-second")));
    }

    #[test]
    fn far_events_overflow_to_heap_and_still_deliver_in_order() {
        let mut cal = Calendar::new();
        // Interleave near (lane) and far (heap) schedules.
        cal.schedule(SimTime::from_secs(2), 4u32);
        cal.schedule(SimTime::from_millis(1), 1u32);
        cal.schedule(SimTime::from_secs(1), 3u32);
        cal.schedule(SimTime::from_millis(50), 2u32);
        let stats = cal.stats();
        assert_eq!(stats.lane_schedules, 2);
        assert_eq!(stats.heap_schedules, 2);
        let order: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4]);
        let stats = cal.stats();
        assert_eq!(stats.pops, 4);
        // The far events were still in the heap when they surfaced (the
        // clock only reaches them when they are the minimum).
        assert_eq!(stats.lane_pops, 2);
        assert_eq!(stats.heap_pops, 2);
    }

    #[test]
    fn horizon_rollover_reuses_ring_buckets() {
        // March the clock through many full ring rotations with a short
        // event chain; every bucket gets reused repeatedly and order must
        // survive. 10 ms steps × 1000 = 10 s ≈ 37 rotations.
        let mut cal = Calendar::new();
        let mut t = SimTime::ZERO;
        cal.schedule(t + SimDuration::from_millis(10), 0u32);
        for i in 0..1000u32 {
            let (at, e) = cal.pop().expect("chain event");
            assert_eq!(e, i);
            assert!(at > t);
            t = at;
            cal.schedule(t + SimDuration::from_millis(10), i + 1);
        }
        assert_eq!(cal.stats().lane_schedules, 1001);
        assert_eq!(cal.stats().heap_schedules, 0);
    }

    #[test]
    fn large_random_workload_pops_sorted() {
        // Deterministic pseudo-random mix of schedules and pops; verifies
        // order and occupancy under churn.
        let mut cal = Calendar::new();
        let mut state = 0x9E37_79B9_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut last = SimTime::ZERO;
        let mut delivered = 0usize;
        let mut scheduled = 0usize;
        for _ in 0..10_000 {
            if next(3) < 2 {
                let at = cal.now() + SimDuration::from_micros(next(1_000) + 1);
                cal.schedule(at, ());
                scheduled += 1;
            } else if let Some((at, ())) = cal.pop() {
                assert!(at >= last);
                last = at;
                delivered += 1;
            }
            assert_eq!(cal.len(), scheduled - delivered);
        }
        while cal.pop().is_some() {
            delivered += 1;
        }
        assert_eq!(delivered, scheduled);
        assert!(cal.is_empty());
    }

    #[test]
    fn drained_dense_buckets_give_back_their_allocation() {
        fn both(a: &mut Calendar<u64>, b: &mut Calendar<u64>, at: SimTime, payload: &mut u64) {
            a.schedule(at, *payload);
            b.schedule(at, *payload);
            *payload += 1;
        }
        let mut two_tier: Calendar<u64> = Calendar::new();
        let mut heap_only: Calendar<u64> = Calendar::heap_only();
        let mut payload = 0;
        // Three rounds, so ring slots are reused: sparse events every 2 ms
        // across the horizon, a far event for the heap, and a burst of
        // 10,000 events into the single bucket ~20 ms out.
        for _ in 0..3 {
            let base = two_tier.now();
            for k in 0..125 {
                let at = base + SimDuration::from_millis(2 * k + 1);
                both(&mut two_tier, &mut heap_only, at, &mut payload);
            }
            let far = base + SimDuration::from_millis(400);
            both(&mut two_tier, &mut heap_only, far, &mut payload);
            let bucket_start = ((base.as_micros() + 20_000) >> BUCKET_SHIFT) << BUCKET_SHIFT;
            for k in 0..10_000 {
                let at = SimTime::from_micros(bucket_start + (k * 7) % (1 << BUCKET_SHIFT));
                both(&mut two_tier, &mut heap_only, at, &mut payload);
            }
            assert!(
                two_tier
                    .lane
                    .iter()
                    .any(|r| r.nodes.capacity() > RETAINED_BUCKET_CAP),
                "the burst must outgrow the bound"
            );
            loop {
                let popped = two_tier.pop();
                assert_eq!(popped, heap_only.pop());
                if popped.is_none() {
                    break;
                }
                // Every bucket behind the scan cursor has been drained and
                // walked past.
                for ring in &two_tier.lane {
                    if ring.bucket < two_tier.scan_from {
                        assert!(
                            ring.nodes.capacity() <= RETAINED_BUCKET_CAP,
                            "drained bucket {} kept {} node slots",
                            ring.bucket,
                            ring.nodes.capacity()
                        );
                    }
                }
            }
        }
        assert!(two_tier
            .lane
            .iter()
            .all(|r| r.nodes.capacity() <= RETAINED_BUCKET_CAP));
        assert_eq!(two_tier.stats().pops, 3 * 10_126);
        assert_eq!(two_tier.stats().heap_schedules, 3);
    }

    #[test]
    fn peek_names_the_next_pop_from_either_root() {
        let at = |us: u64| SimTime::from_micros(us);
        for heap_only in [false, true] {
            let mut cal = if heap_only {
                Calendar::heap_only()
            } else {
                Calendar::new()
            };
            assert_eq!(cal.peek(), None);
            // Beyond the horizon at clock 0: both go to the heap.
            cal.schedule(at(270_000), "far-1");
            cal.schedule(at(270_100), "far-2");
            cal.schedule(at(20_000), "filler");
            assert_eq!(cal.pop(), Some((at(20_000), "filler")));
            // Inside the horizon now: lane bucket 264, after the heap's 263.
            cal.schedule(at(270_500), "near-1");
            cal.schedule(at(270_600), "near-2");
            let before = cal.stats();
            let order = ["far-1", "far-2", "near-1", "near-2"];
            for (i, want) in order.into_iter().enumerate() {
                let peeked = cal.peek();
                if heap_only || i > 0 {
                    // The heap-only calendar always knows; the two-tier one
                    // knows once the min-scan parked on the lane bucket
                    // (the first pop), and then compares the two roots:
                    // `far-2` is the heap root and beats the lane's root.
                    assert_eq!(peeked.map(|(_, e)| e), Some(want), "heap_only={heap_only}");
                } else {
                    // The filler's bucket drained and the lane's minimum
                    // needs the scan.
                    assert_eq!(peeked, None);
                }
                let popped = cal.pop().expect("pending");
                assert_eq!(popped.1, want);
                if let Some(p) = peeked {
                    assert_eq!(p, popped);
                }
            }
            assert_eq!(cal.peek(), None);
            assert_eq!(cal.stats().pops - before.pops, 4, "peek never pops");
        }
    }

    #[test]
    fn heap_only_delivers_the_same_order_as_two_tier() {
        let mut two_tier: Calendar<u64> = Calendar::new();
        let mut heap_only: Calendar<u64> = Calendar::heap_only();
        // Mixed near-horizon and far-future timestamps, including ties
        // (seq must break them identically in both tiers).
        let mut x = 0x9E37_79B9u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for i in 0..5_000u64 {
            let at = SimTime::from_micros(next(2_000_000));
            two_tier.schedule(at, i);
            heap_only.schedule(at, i);
        }
        assert_eq!(heap_only.stats().lane_schedules, 0);
        assert!(two_tier.stats().lane_schedules > 0);
        loop {
            match (two_tier.pop(), heap_only.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b),
            }
        }
    }
}
