//! Property tests: server pools and disk arrays conserve requests, account
//! busy and waiting time exactly, and start requests in the order their
//! queueing discipline demands, under arbitrary workloads.
//!
//! The caller carries each request in service, as the simulator does in
//! its completion events: a payload comes back from the `submit` that
//! starts it or from the `complete` that starts it, and is retired by the
//! completion of the server it occupies.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ccsim_des::{SimDuration, SimTime};
use ccsim_resources::{DiskArray, Priority, Request, ServerPool};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Job {
    duration_ms: u64,
    high: bool,
}

fn jobs() -> impl Strategy<Value = Vec<Job>> {
    proptest::collection::vec(
        (1u64..50, any::<bool>()).prop_map(|(duration_ms, high)| Job { duration_ms, high }),
        1..60,
    )
}

/// A job arriving at `at_ms`, with a priority for a pool and a disk for a
/// disk array (each test reads the field it needs).
#[derive(Debug, Clone)]
struct Arrival {
    at_ms: u64,
    duration_ms: u64,
    high: bool,
    disk: usize,
}

const DISKS: usize = 3;

/// Jobs in submit order: arrival instants are sorted, and equal instants
/// keep their generated order. Zero-length services are allowed.
fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec(
        (0u64..200, 0u64..30, any::<bool>(), 0..DISKS).prop_map(
            |(at_ms, duration_ms, high, disk)| Arrival {
                at_ms,
                duration_ms,
                high,
                disk,
            },
        ),
        1..80,
    )
    .prop_map(|mut jobs| {
        jobs.sort_by_key(|j| j.at_ms);
        jobs
    })
}

/// An event of the test loops: job `i` arrives, or the request with
/// payload `i` completes on `server` (a disk index for a disk array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Arrive(usize),
    Done { server: usize, payload: usize },
}

/// A minimal event calendar: earliest instant first, ties in schedule
/// order.
#[derive(Default)]
struct Agenda {
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
}

impl Agenda {
    fn schedule(&mut self, at: SimTime, ev: Ev) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|Reverse((at, _, ev))| (at, ev))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Drive a pool to completion: every submitted job completes exactly
    /// once, total busy time equals the sum of services, and each
    /// completion time is consistent.
    #[test]
    fn pool_conserves_jobs(jobs in jobs(), servers in 1usize..5) {
        let mut pool: ServerPool<usize> = ServerPool::new(servers);
        let t0 = SimTime::ZERO;
        // Event list: (completion time, server, payload).
        let mut events: Vec<(SimTime, usize, usize)> = Vec::new();
        for (i, j) in jobs.iter().enumerate() {
            if let Some(s) = pool.submit(
                t0,
                Request {
                    payload: i,
                    duration: SimDuration::from_millis(j.duration_ms),
                    priority: if j.high { Priority::High } else { Priority::Normal },
                },
            ) {
                events.push((s.completes_at, s.server, i));
            }
        }
        let mut done: Vec<usize> = Vec::new();
        while !events.is_empty() {
            // Pop the earliest completion (FIFO tie-break by insertion).
            let ix = events
                .iter()
                .enumerate()
                .min_by_key(|(pos, (at, ..))| (*at, *pos))
                .map(|(pos, _)| pos)
                .unwrap();
            let (at, server, payload) = events.remove(ix);
            done.push(payload);
            if let Some((s, next)) = pool.complete(at, server) {
                prop_assert_eq!(s.server, server);
                events.push((s.completes_at, s.server, next));
            }
        }
        // Conservation: all jobs completed exactly once.
        let mut sorted = done.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), jobs.len());
        prop_assert_eq!(pool.served(), jobs.len() as u64);
        prop_assert_eq!(pool.queue_len(), 0);
        prop_assert_eq!(pool.busy_servers(), 0);
        // Busy accounting: exactly the sum of all service demands.
        let total_ms: u64 = jobs.iter().map(|j| j.duration_ms).sum();
        prop_assert_eq!(
            pool.busy_micros(SimTime::from_secs(1_000_000)),
            total_ms * 1_000
        );
    }

    /// The same conservation property for a disk array with random routing.
    #[test]
    fn disk_array_conserves_jobs(
        assignments in proptest::collection::vec((0usize..4, 1u64..40), 1..60)
    ) {
        let mut disks: DiskArray<usize> = DiskArray::new(4);
        let t0 = SimTime::ZERO;
        let mut events: Vec<(SimTime, usize)> = Vec::new();
        for (i, &(disk, ms)) in assignments.iter().enumerate() {
            if let Some(s) = disks.submit(t0, disk, i, SimDuration::from_millis(ms)) {
                events.push((s.completes_at, s.disk));
            }
        }
        let mut completed = 0usize;
        while !events.is_empty() {
            let ix = events
                .iter()
                .enumerate()
                .min_by_key(|(pos, (at, _))| (*at, *pos))
                .map(|(pos, _)| pos)
                .unwrap();
            let (at, disk) = events.remove(ix);
            completed += 1;
            if let Some((s, _)) = disks.complete(at, disk) {
                prop_assert_eq!(s.disk, disk);
                events.push((s.completes_at, s.disk));
            }
        }
        prop_assert_eq!(completed, assignments.len());
        prop_assert_eq!(disks.queued(), 0);
        let total_ms: u64 = assignments.iter().map(|&(_, ms)| ms).sum();
        prop_assert_eq!(
            disks.busy_micros(SimTime::from_secs(1_000_000)),
            total_ms * 1_000
        );
    }

    /// Jobs arrive over time with random priorities. Each payload is
    /// handed to the caller exactly once — by the `submit` or by the
    /// `complete` that starts it — and retired exactly once; no Normal
    /// request starts while a High one waits, each class starts in submit
    /// order, the queue integral equals the summed waits after every
    /// operation, and busy time ends equal to the summed demand.
    #[test]
    fn pool_serves_arrivals_over_time(jobs in arrivals(), servers in 1usize..4) {
        let mut pool: ServerPool<usize> = ServerPool::new(servers);
        let mut agenda = Agenda::default();
        for (i, j) in jobs.iter().enumerate() {
            agenda.schedule(SimTime::from_millis(j.at_ms), Ev::Arrive(i));
        }
        // The model of the queue: waiting payloads per class, submit order.
        let mut waiting = [VecDeque::new(), VecDeque::new()];
        let class = |i: usize| usize::from(!jobs[i].high);
        let mut handed = vec![0u32; jobs.len()];
        let mut retired = vec![0u32; jobs.len()];
        let mut now = SimTime::ZERO;
        while let Some((at, ev)) = agenda.pop() {
            now = at;
            let started = match ev {
                Ev::Arrive(i) => {
                    let j = &jobs[i];
                    let req = Request {
                        payload: i,
                        duration: SimDuration::from_millis(j.duration_ms),
                        priority: if j.high { Priority::High } else { Priority::Normal },
                    };
                    match pool.submit(now, req) {
                        Some(s) => {
                            prop_assert!(waiting.iter().all(VecDeque::is_empty));
                            Some((s, i))
                        }
                        None => {
                            prop_assert_eq!(pool.busy_servers(), servers);
                            waiting[class(i)].push_back(i);
                            None
                        }
                    }
                }
                Ev::Done { server, payload } => {
                    retired[payload] += 1;
                    let next = pool.complete(now, server);
                    match next {
                        Some((s, i)) => {
                            prop_assert_eq!(s.server, server);
                            if !jobs[i].high {
                                prop_assert!(waiting[0].is_empty(), "Normal started over High");
                            }
                            prop_assert_eq!(waiting[class(i)].pop_front(), Some(i));
                        }
                        None => prop_assert!(waiting.iter().all(VecDeque::is_empty)),
                    }
                    next
                }
            };
            if let Some((s, i)) = started {
                handed[i] += 1;
                let demand = SimDuration::from_millis(jobs[i].duration_ms);
                prop_assert_eq!(s.completes_at, now + demand);
                agenda.schedule(s.completes_at, Ev::Done { server: s.server, payload: i });
            }
            prop_assert_eq!(pool.queue_len(), waiting[0].len() + waiting[1].len());
            prop_assert_eq!(
                pool.queue_integral_us(now),
                pool.total_wait_us() + pool.pending_wait_us(now)
            );
        }
        prop_assert!(handed.iter().all(|&n| n == 1), "handed {:?}", handed);
        prop_assert!(retired.iter().all(|&n| n == 1), "retired {:?}", retired);
        prop_assert_eq!(pool.served(), jobs.len() as u64);
        prop_assert_eq!(pool.busy_servers(), 0);
        let total_ms: u64 = jobs.iter().map(|j| j.duration_ms).sum();
        prop_assert_eq!(pool.busy_micros(now), total_ms * 1_000);
    }

    /// The same rules for a disk array fed over time: each disk starts its
    /// I/Os in submit order, hands each payload over once, and balances
    /// its queue integral against its waits after every operation.
    #[test]
    fn disk_array_serves_arrivals_over_time(jobs in arrivals()) {
        let mut disks: DiskArray<usize> = DiskArray::new(DISKS);
        let mut agenda = Agenda::default();
        for (i, j) in jobs.iter().enumerate() {
            agenda.schedule(SimTime::from_millis(j.at_ms), Ev::Arrive(i));
        }
        let mut waiting: Vec<VecDeque<usize>> = vec![VecDeque::new(); DISKS];
        let mut handed = vec![0u32; jobs.len()];
        let mut retired = vec![0u32; jobs.len()];
        let mut now = SimTime::ZERO;
        while let Some((at, ev)) = agenda.pop() {
            now = at;
            let started = match ev {
                Ev::Arrive(i) => {
                    let j = &jobs[i];
                    let io = SimDuration::from_millis(j.duration_ms);
                    match disks.submit(now, j.disk, i, io) {
                        Some(s) => {
                            prop_assert!(waiting[j.disk].is_empty());
                            prop_assert_eq!(s.disk, j.disk);
                            Some((s, i))
                        }
                        None => {
                            waiting[j.disk].push_back(i);
                            None
                        }
                    }
                }
                Ev::Done { server: disk, payload } => {
                    retired[payload] += 1;
                    let next = disks.complete(now, disk);
                    match next {
                        Some((s, i)) => {
                            prop_assert_eq!(s.disk, disk);
                            prop_assert_eq!(waiting[disk].pop_front(), Some(i));
                        }
                        None => prop_assert!(waiting[disk].is_empty()),
                    }
                    next
                }
            };
            if let Some((s, i)) = started {
                handed[i] += 1;
                let io = SimDuration::from_millis(jobs[i].duration_ms);
                prop_assert_eq!(s.completes_at, now + io);
                agenda.schedule(s.completes_at, Ev::Done { server: s.disk, payload: i });
            }
            prop_assert_eq!(disks.queued(), waiting.iter().map(VecDeque::len).sum::<usize>());
            prop_assert_eq!(
                disks.queue_integral_us(now),
                disks.total_wait_us() + disks.pending_wait_us(now)
            );
        }
        prop_assert!(handed.iter().all(|&n| n == 1), "handed {:?}", handed);
        prop_assert!(retired.iter().all(|&n| n == 1), "retired {:?}", retired);
        prop_assert_eq!(disks.served(), jobs.len() as u64);
        let total_ms: u64 = jobs.iter().map(|j| j.duration_ms).sum();
        prop_assert_eq!(disks.busy_micros(now), total_ms * 1_000);
    }
}
