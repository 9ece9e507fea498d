//! Host-speed calibration of the end-to-end timings.
//!
//! On a shared host the simulator's speed drifts by tens of percent over
//! minutes as neighbours load the machine, and a whole run shifts with it,
//! so medians over passes alone cannot make run-to-run timings steady. Two
//! fixed probes slow down with the simulator: a chain of dependent integer
//! operations (core speed) and a pointer chase through a 32 MiB ring (how
//! much of the shared cache and memory bandwidth neighbours take). The
//! benchmark runs both right before and after each timed unit and scales
//! the unit's time by the geometric mean of the two probes' slowdowns
//! against an idle reference host. Scaled times read as seconds on that
//! host.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the integer probe.
const CHAIN_STEPS: u64 = 10_000_000;
/// Entries of the pointer-chase ring, and steps per chase.
const RING_LEN: usize = 1 << 23;
const CHASE_STEPS: usize = 200_000;

/// The probes' times on the reference host, a 2-vCPU Intel Xeon x86-64 VM
/// at rest.
const REFERENCE_CHAIN: Duration = Duration::from_millis(20);
const REFERENCE_CHASE: Duration = Duration::from_millis(25);

fn chain() -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = Instant::now();
    for _ in 0..black_box(CHAIN_STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// The host's speed, sampled between timed units.
pub struct HostSpeed {
    /// `ring[i]` is the entry after `i`; the entries form one cycle in a
    /// random order, so each step is a dependent cache or memory miss.
    ring: Vec<u32>,
    /// Probe times (chain, chase) at the last sample.
    last: (f64, f64),
    /// Every speed factor handed out.
    factors: Vec<f64>,
}

impl HostSpeed {
    /// Build the ring and sample the speed.
    #[must_use]
    pub fn new() -> Self {
        // Sattolo's shuffle of the identity: a single cycle through all
        // entries.
        let mut ring: Vec<u32> = (0..RING_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..RING_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        let mut speed = HostSpeed {
            ring,
            last: (0.0, 0.0),
            factors: Vec::new(),
        };
        speed.last = speed.probe();
        speed
    }

    fn chase(&self) -> f64 {
        let t0 = Instant::now();
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.ring[i as usize];
        }
        black_box(i);
        t0.elapsed().as_secs_f64()
    }

    fn probe(&self) -> (f64, f64) {
        (chain(), self.chase())
    }

    /// Sample the speed right before a timed unit that does not directly
    /// follow the last one.
    pub fn resample(&mut self) {
        self.last = self.probe();
    }

    /// Sample the speed again right after a timed unit and return the
    /// factor that scales the unit's time to the reference host: the
    /// geometric mean, over the two probes, of the reference time over the
    /// mean of the probe's times before and after the unit.
    pub fn factor(&mut self) -> f64 {
        let now = self.probe();
        let chain_f = REFERENCE_CHAIN.as_secs_f64() / ((self.last.0 + now.0) / 2.0);
        let chase_f = REFERENCE_CHASE.as_secs_f64() / ((self.last.1 + now.1) / 2.0);
        let f = (chain_f * chase_f).sqrt();
        self.last = now;
        self.factors.push(f);
        f
    }

    /// Every factor handed out so far.
    #[must_use]
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}
