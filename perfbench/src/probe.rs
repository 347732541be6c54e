//! The host-speed probe that end-to-end times are corrected by.
//!
//! On a shared host, other tenants contend for caches and memory in phases
//! that last from seconds to minutes, and the simulator slows by up to 45%
//! while they do; an ALU-only loop barely moves over the same phases. Left
//! uncorrected, that contention decides the run-to-run spread of every
//! host time. The probe is a fixed kernel that does what the simulator
//! does most — pop the earliest of a few thousand pending events from a
//! binary heap, update a random slot of a 1 MiB state table, push the event
//! back — so it slows down with the simulator. It uses only the standard
//! library, so no change to the program can change it.
//!
//! The timed pass runs the probe between results and rescales each
//! result's host seconds by `PROBE_REF_NS` over the mean of the probes on
//! either side of it: the seconds the result would have taken on a host
//! where the probe costs `PROBE_REF_NS`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The probe's cost per operation on an uncontended host: the fastest
/// twentieth of 1,150 probes taken over ten minutes on a 2-vCPU Xeon VM
/// ran at 71-75 ns.
pub const PROBE_REF_NS: f64 = 75.0;

/// Operations timed per probe (about 15 ms).
const OPS: u32 = 200_000;

/// Pending events in the probe's heap.
const DEPTH: u32 = 2048;

pub struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    slots: Vec<u64>,
    rng: u64,
}

impl Probe {
    pub fn new() -> Self {
        let mut p = Probe {
            heap: BinaryHeap::with_capacity(DEPTH as usize),
            slots: vec![0; 1 << 17],
            rng: 0x9E37_79B9_7F4A_7C15,
        };
        for e in 0..DEPTH {
            let at = p.next() % 20;
            p.heap.push(Reverse((at, e)));
        }
        p
    }

    /// xorshift64: the probe's own generator, independent of the program.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// Mean ns per operation over one probe.
    pub fn ns_per_op(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..OPS {
            let Reverse((now, e)) = self.heap.pop().expect("the probe never drains");
            let r = self.next();
            let slot = r as usize & (self.slots.len() - 1);
            self.slots[slot] = self.slots[slot].wrapping_add(u64::from(e));
            self.heap.push(Reverse((now + 1 + r % 20, e)));
        }
        black_box(&self.slots);
        t0.elapsed().as_nanos() as f64 / f64::from(OPS)
    }
}
