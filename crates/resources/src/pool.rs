//! A pool of identical servers fed by one two-class FCFS queue.
//!
//! This models the paper's CPU resource: "the CPU servers may be thought of
//! as being a pool of servers, all identical and serving one global CPU
//! queue. Requests in the CPU queue are serviced FCFS, except that
//! concurrency control requests have priority over all other service
//! requests." A pool of size 1 also serves as a single disk server.
//!
//! The pool is *passive*: it never schedules events itself, and it holds a
//! request's payload only while the request waits. `submit` either starts
//! service, returning the completion time for the caller to put on its
//! event calendar, or queues the request; `complete` retires a finished
//! request and, if work is waiting, starts the next one on the freed
//! server and hands its payload back. A request in service is the
//! caller's to carry, typically in its completion event.

use std::collections::VecDeque;

use ccsim_des::{SimDuration, SimTime};

/// Service priority class. `High` models concurrency-control requests, which
/// the paper gives priority over all other CPU work. Within a class the
/// discipline is FCFS; the classes are non-preemptive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Concurrency-control requests.
    High,
    /// Object accesses and other work.
    #[default]
    Normal,
}

/// A service request with an opaque caller payload.
#[derive(Debug, Clone)]
pub struct Request<T> {
    /// Caller context. Dropped by a [`ServerPool::submit`] that starts the
    /// request at once (the caller keeps its own copy); otherwise held in
    /// the queue and returned by the [`ServerPool::complete`] that starts
    /// the request.
    pub payload: T,
    /// Service demand.
    pub duration: SimDuration,
    /// Queueing class.
    pub priority: Priority,
}

/// Outcome of starting a request on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Started {
    /// Which server the request occupies.
    pub server: usize,
    /// Absolute time at which service completes.
    pub completes_at: SimTime,
}

/// A request in service: only its timing, for busy-time accounting.
#[derive(Debug)]
struct InService {
    started_at: SimTime,
    duration: SimDuration,
}

/// A request waiting in queue, stamped with its enqueue time so waiting
/// time can be accounted per request when it dequeues.
#[derive(Debug)]
struct Queued<T> {
    enqueued_at: SimTime,
    req: Request<T>,
}

/// A pool of `n` identical servers with a shared two-class FCFS queue.
///
/// Besides busy time, the pool keeps two *independent* waiting-time
/// accounts: the time integral of the queue length
/// ([`ServerPool::queue_integral_us`], advanced lazily at every queue
/// change) and the per-request waits ([`ServerPool::total_wait_us`] for
/// dequeued requests plus [`ServerPool::pending_wait_us`] for those still
/// queued). By the operational form of Little's law the two accounts must
/// agree exactly at every instant; an auditor can use the identity as a
/// flow-balance check.
#[derive(Debug)]
pub struct ServerPool<T> {
    servers: Vec<Option<InService>>,
    free: Vec<usize>,
    high: VecDeque<Queued<T>>,
    normal: VecDeque<Queued<T>>,
    completed_busy_us: u64,
    served: u64,
    /// ∫ queue_len dt up to `queue_changed_at`, µs·requests.
    queue_integral_us: u64,
    /// Instant of the last enqueue/dequeue (the integral is exact up to
    /// here; accessors extend it to `now` at the current queue length).
    queue_changed_at: SimTime,
    /// Summed waiting time of requests that already left the queue, µs.
    total_wait_us: u64,
}

impl<T> ServerPool<T> {
    /// Create a pool of `n` servers.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a server pool needs at least one server");
        ServerPool {
            servers: (0..n).map(|_| None).collect(),
            free: (0..n).rev().collect(),
            high: VecDeque::new(),
            normal: VecDeque::new(),
            completed_busy_us: 0,
            served: 0,
            queue_integral_us: 0,
            queue_changed_at: SimTime::ZERO,
            total_wait_us: 0,
        }
    }

    /// Extend the queue-length integral up to `now` at the current length.
    fn advance_queue_clock(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.queue_changed_at).as_micros();
        self.queue_integral_us += self.queue_len() as u64 * elapsed;
        self.queue_changed_at = now;
    }

    /// Number of servers in the pool.
    #[must_use]
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }

    /// Number of requests waiting (not in service).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Number of servers currently serving a request.
    #[must_use]
    pub fn busy_servers(&self) -> usize {
        self.servers.len() - self.free.len()
    }

    /// Total requests completed so far.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Submit a request at time `now`. Returns `Some` if service starts
    /// immediately (the caller must schedule the completion and keeps the
    /// payload), `None` if the request joined the queue.
    pub fn submit(&mut self, now: SimTime, req: Request<T>) -> Option<Started> {
        if let Some(server) = self.free.pop() {
            // Work only queues when every server is busy, so an idle
            // server implies an empty queue and its clock needs no update.
            debug_assert_eq!(self.queue_len(), 0, "free server with a non-empty queue");
            Some(self.start_on(server, now, req.duration))
        } else {
            self.advance_queue_clock(now);
            let queued = Queued {
                enqueued_at: now,
                req,
            };
            match queued.req.priority {
                Priority::High => self.high.push_back(queued),
                Priority::Normal => self.normal.push_back(queued),
            }
            None
        }
    }

    /// Retire the request on `server` at time `now`. If queued work exists,
    /// the next request starts on the same server and is returned with its
    /// payload (the caller must schedule its completion).
    ///
    /// # Panics
    /// Panics if `server` is idle — completions must match starts.
    pub fn complete(&mut self, now: SimTime, server: usize) -> Option<(Started, T)> {
        let svc = self.servers[server]
            .take()
            .expect("completion for an idle server");
        debug_assert_eq!(
            svc.started_at + svc.duration,
            now,
            "completion time mismatch"
        );
        self.completed_busy_us += svc.duration.as_micros();
        self.served += 1;
        if self.queue_len() > 0 {
            // Extend the integral at the pre-dequeue length.
            self.advance_queue_clock(now);
        }
        let Some(q) = self.high.pop_front().or_else(|| self.normal.pop_front()) else {
            self.free.push(server);
            return None;
        };
        self.total_wait_us += now.saturating_since(q.enqueued_at).as_micros();
        Some((self.start_on(server, now, q.req.duration), q.req.payload))
    }

    fn start_on(&mut self, server: usize, now: SimTime, duration: SimDuration) -> Started {
        debug_assert!(self.servers[server].is_none());
        self.servers[server] = Some(InService {
            started_at: now,
            duration,
        });
        Started {
            server,
            completes_at: now + duration,
        }
    }

    /// Cumulative busy time up to `now`, including in-flight partial
    /// service. Utilization over a window is the difference of two calls
    /// divided by `window × num_servers`.
    #[must_use]
    pub fn busy_micros(&self, now: SimTime) -> u64 {
        let in_flight: u64 = self
            .servers
            .iter()
            .flatten()
            .map(|svc| {
                now.saturating_since(svc.started_at)
                    .as_micros()
                    .min(svc.duration.as_micros())
            })
            .sum();
        self.completed_busy_us + in_flight
    }

    /// ∫ (queue length) dt from time zero to `now`, in µs·requests.
    /// Counts waiting requests only, not those in service.
    #[must_use]
    pub fn queue_integral_us(&self, now: SimTime) -> u64 {
        let elapsed = now.saturating_since(self.queue_changed_at).as_micros();
        self.queue_integral_us + self.queue_len() as u64 * elapsed
    }

    /// Total queue-waiting time of requests that have entered service, µs.
    #[must_use]
    pub fn total_wait_us(&self) -> u64 {
        self.total_wait_us
    }

    /// Waiting time accrued up to `now` by requests still in queue, µs.
    #[must_use]
    pub fn pending_wait_us(&self, now: SimTime) -> u64 {
        self.high
            .iter()
            .chain(self.normal.iter())
            .map(|q| now.saturating_since(q.enqueued_at).as_micros())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(payload: u32, ms: u64) -> Request<u32> {
        Request {
            payload,
            duration: SimDuration::from_millis(ms),
            priority: Priority::Normal,
        }
    }

    fn high(payload: u32, ms: u64) -> Request<u32> {
        Request {
            priority: Priority::High,
            ..req(payload, ms)
        }
    }

    #[test]
    fn single_server_fcfs() {
        let mut p = ServerPool::new(1);
        let t0 = SimTime::ZERO;
        let s = p.submit(t0, req(1, 10)).expect("idle server starts");
        assert_eq!(s.completes_at, SimTime::from_millis(10));
        assert!(p.submit(t0, req(2, 10)).is_none());
        assert!(p.submit(t0, req(3, 10)).is_none());
        assert_eq!(p.queue_len(), 2);

        let (next, started) = p
            .complete(SimTime::from_millis(10), s.server)
            .expect("queued work starts");
        assert_eq!(started, 2);
        assert_eq!(next.completes_at, SimTime::from_millis(20));
        let (next, started) = p.complete(SimTime::from_millis(20), next.server).unwrap();
        assert_eq!(started, 3);
        assert!(p.complete(SimTime::from_millis(30), next.server).is_none());
        assert_eq!(p.served(), 3);
    }

    #[test]
    fn high_priority_jumps_queue_but_not_service() {
        let mut p = ServerPool::new(1);
        let t0 = SimTime::ZERO;
        let s = p.submit(t0, req(1, 10)).unwrap();
        assert!(p.submit(t0, req(2, 10)).is_none());
        assert!(p.submit(t0, high(9, 1)).is_none());
        // Non-preemptive: request 1 finishes first, then the high-priority
        // request 9 overtakes request 2.
        let (next, started) = p.complete(SimTime::from_millis(10), s.server).unwrap();
        assert_eq!(started, 9);
        assert_eq!(next.completes_at, SimTime::from_millis(11));
        let (_, started) = p.complete(SimTime::from_millis(11), next.server).unwrap();
        assert_eq!(started, 2);
    }

    #[test]
    fn multiple_servers_run_in_parallel() {
        let mut p = ServerPool::new(3);
        let t0 = SimTime::ZERO;
        let a = p.submit(t0, req(1, 10)).unwrap();
        let b = p.submit(t0, req(2, 20)).unwrap();
        let c = p.submit(t0, req(3, 30)).unwrap();
        assert_ne!(a.server, b.server);
        assert_ne!(b.server, c.server);
        assert_eq!(p.busy_servers(), 3);
        assert!(p.submit(t0, req(4, 5)).is_none());

        // Request 4 starts on the freed server.
        let (next, started) = p.complete(SimTime::from_millis(10), a.server).unwrap();
        assert_eq!(started, 4);
        assert_eq!(next.server, a.server);
        assert_eq!(next.completes_at, SimTime::from_millis(15));
    }

    #[test]
    fn busy_micros_tracks_partial_service() {
        let mut p = ServerPool::new(2);
        let t0 = SimTime::ZERO;
        let a = p.submit(t0, req(1, 100)).unwrap();
        p.submit(t0, req(2, 100)).unwrap();
        // Halfway through, both servers have accrued 50 ms each.
        assert_eq!(p.busy_micros(SimTime::from_millis(50)), 100_000);
        assert!(p.complete(SimTime::from_millis(100), a.server).is_none());
        // Server a contributed its full 100 ms to the completed pot.
        assert_eq!(p.busy_micros(SimTime::from_millis(100)), 200_000);
    }

    #[test]
    fn idle_pool_accrues_nothing() {
        let p: ServerPool<()> = ServerPool::new(4);
        assert_eq!(p.busy_micros(SimTime::from_secs(100)), 0);
        assert_eq!(p.busy_servers(), 0);
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    #[should_panic(expected = "idle server")]
    fn completing_idle_server_panics() {
        let mut p: ServerPool<()> = ServerPool::new(1);
        let _ = p.complete(SimTime::ZERO, 0);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        let _: ServerPool<()> = ServerPool::new(0);
    }

    #[test]
    fn fifo_within_class() {
        let mut p = ServerPool::new(1);
        let t0 = SimTime::ZERO;
        let mut cur = p.submit(t0, req(0, 1)).unwrap();
        for i in 1..=5 {
            assert!(p.submit(t0, req(i, 1)).is_none());
        }
        let mut order = vec![0];
        while let Some((next, started)) = p.complete(cur.completes_at, cur.server) {
            order.push(started);
            cur = next;
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn queue_integral_matches_per_request_waits() {
        // One server; three requests land at t=0. The second waits 10 ms,
        // the third 20 ms. The queue holds 2 requests for the first 10 ms
        // and 1 for the next 10 ms: ∫q dt = 2·10 + 1·10 = 30 ms.
        let mut p = ServerPool::new(1);
        let t0 = SimTime::ZERO;
        let s = p.submit(t0, req(1, 10)).unwrap();
        assert!(p.submit(t0, req(2, 10)).is_none());
        assert!(p.submit(t0, req(3, 10)).is_none());

        // Mid-flight the identity already holds: integral == pending waits.
        let mid = SimTime::from_millis(5);
        assert_eq!(p.queue_integral_us(mid), 10_000);
        assert_eq!(p.total_wait_us(), 0);
        assert_eq!(p.pending_wait_us(mid), 10_000);

        let (next, _) = p.complete(SimTime::from_millis(10), s.server).unwrap();
        let (next, _) = p.complete(SimTime::from_millis(20), next.server).unwrap();
        assert!(p.complete(SimTime::from_millis(30), next.server).is_none());

        let end = SimTime::from_millis(30);
        assert_eq!(p.queue_integral_us(end), 30_000);
        assert_eq!(p.total_wait_us(), 30_000);
        assert_eq!(p.pending_wait_us(end), 0);
        assert_eq!(
            p.queue_integral_us(end),
            p.total_wait_us() + p.pending_wait_us(end),
            "flow balance must be exact"
        );
    }

    #[test]
    fn immediate_starts_accrue_no_wait() {
        let mut p = ServerPool::new(2);
        let t0 = SimTime::from_secs(1);
        let a = p.submit(t0, req(1, 10)).unwrap();
        let b = p.submit(t0, req(2, 10)).unwrap();
        assert!(p.complete(a.completes_at, a.server).is_none());
        assert!(p.complete(b.completes_at, b.server).is_none());
        let end = SimTime::from_secs(2);
        assert_eq!(p.queue_integral_us(end), 0);
        assert_eq!(p.total_wait_us(), 0);
        assert_eq!(p.pending_wait_us(end), 0);
    }

    #[test]
    fn zero_duration_request_completes_instantly() {
        let mut p = ServerPool::new(1);
        let s = p
            .submit(
                SimTime::from_secs(1),
                Request {
                    payload: 7u32,
                    duration: SimDuration::ZERO,
                    priority: Priority::High,
                },
            )
            .unwrap();
        assert_eq!(s.completes_at, SimTime::from_secs(1));
        assert!(p.complete(SimTime::from_secs(1), s.server).is_none());
        assert_eq!(p.served(), 1);
    }
}
