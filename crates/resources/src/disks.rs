//! The partitioned disk array.
//!
//! "Our I/O model is that of a partitioned database, where the data in the
//! database is spread out across all of the disks. There is a queue
//! associated with each of the I/O servers." (paper §3). The caller picks
//! the disk for each request; the simulator draws it uniformly at random,
//! as the paper does.

use ccsim_des::{SimDuration, SimTime};

use crate::pool::{Priority, Request, ServerPool};

/// An array of single-server FCFS disks.
#[derive(Debug)]
pub struct DiskArray<T> {
    disks: Vec<ServerPool<T>>,
}

/// Identifies a request in service: which disk it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskStarted {
    /// Index of the disk serving the request.
    pub disk: usize,
    /// Absolute completion time.
    pub completes_at: SimTime,
}

impl<T> DiskArray<T> {
    /// Create an array of `n` disks.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a disk array needs at least one disk");
        DiskArray {
            disks: (0..n).map(|_| ServerPool::new(1)).collect(),
        }
    }

    /// Number of disks.
    #[must_use]
    pub fn num_disks(&self) -> usize {
        self.disks.len()
    }

    /// Submit an I/O of `duration` for `payload` to `disk`. Returns the
    /// completion time if the disk was idle (the caller keeps the
    /// payload), `None` if queued.
    pub fn submit(
        &mut self,
        now: SimTime,
        disk: usize,
        payload: T,
        duration: SimDuration,
    ) -> Option<DiskStarted> {
        self.disks[disk]
            .submit(
                now,
                Request {
                    payload,
                    duration,
                    priority: Priority::Normal,
                },
            )
            .map(|s| DiskStarted {
                disk,
                completes_at: s.completes_at,
            })
    }

    /// Retire the I/O on `disk`; if another request was queued there it
    /// starts and is returned with its payload.
    pub fn complete(&mut self, now: SimTime, disk: usize) -> Option<(DiskStarted, T)> {
        self.disks[disk].complete(now, 0).map(|(s, payload)| {
            (
                DiskStarted {
                    disk,
                    completes_at: s.completes_at,
                },
                payload,
            )
        })
    }

    /// Total requests waiting across all disk queues.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.disks.iter().map(ServerPool::queue_len).sum()
    }

    /// Cumulative busy time summed over all disks, including in-flight
    /// partial service.
    #[must_use]
    pub fn busy_micros(&self, now: SimTime) -> u64 {
        self.disks.iter().map(|d| d.busy_micros(now)).sum()
    }

    /// Total I/Os completed across all disks.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.disks.iter().map(ServerPool::served).sum()
    }

    /// ∫ (queue length) dt summed over all disk queues, µs·requests.
    #[must_use]
    pub fn queue_integral_us(&self, now: SimTime) -> u64 {
        self.disks.iter().map(|d| d.queue_integral_us(now)).sum()
    }

    /// Total queue-waiting time of I/Os that have entered service, µs.
    #[must_use]
    pub fn total_wait_us(&self) -> u64 {
        self.disks.iter().map(ServerPool::total_wait_us).sum()
    }

    /// Waiting time accrued up to `now` by I/Os still queued, µs.
    #[must_use]
    pub fn pending_wait_us(&self, now: SimTime) -> u64 {
        self.disks.iter().map(|d| d.pending_wait_us(now)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disks_queue_independently() {
        let mut d = DiskArray::new(2);
        let t0 = SimTime::ZERO;
        let io = SimDuration::from_millis(35);
        assert!(d.submit(t0, 0, 'a', io).is_some());
        assert!(d.submit(t0, 1, 'b', io).is_some());
        // Disk 0 busy: queues.
        assert!(d.submit(t0, 0, 'c', io).is_none());
        assert_eq!(d.queued(), 1);

        let (next, started) = d.complete(SimTime::from_millis(35), 0).unwrap();
        assert_eq!(started, 'c');
        assert_eq!(next.disk, 0);
        assert_eq!(next.completes_at, SimTime::from_millis(70));
        assert_eq!(d.queued(), 0);
    }

    #[test]
    fn busy_accounting_aggregates() {
        let mut d = DiskArray::new(2);
        let t0 = SimTime::ZERO;
        let io = SimDuration::from_millis(10);
        let a = d.submit(t0, 0, 1, io).unwrap();
        d.submit(t0, 1, 2, io).unwrap();
        assert!(d.complete(a.completes_at, 0).is_none());
        assert_eq!(d.busy_micros(SimTime::from_millis(10)), 20_000);
        assert_eq!(d.served(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_panics() {
        let _: DiskArray<()> = DiskArray::new(0);
    }

    #[test]
    fn wait_accounting_aggregates_across_disks() {
        let mut d = DiskArray::new(2);
        let t0 = SimTime::ZERO;
        let io = SimDuration::from_millis(10);
        let a = d.submit(t0, 0, 1, io).unwrap();
        assert!(d.submit(t0, 0, 2, io).is_none()); // waits 10 ms on disk 0
        d.submit(t0, 1, 3, io).unwrap();
        let (next, started) = d.complete(a.completes_at, 0).unwrap();
        assert_eq!(started, 2);
        assert!(d.complete(next.completes_at, 0).is_none());
        let end = SimTime::from_millis(20);
        assert_eq!(d.total_wait_us(), 10_000);
        assert_eq!(d.queue_integral_us(end), 10_000);
        assert_eq!(d.pending_wait_us(end), 0);
    }
}
