//! Single-layer probes of the traced pass, timed outside every result:
//! a hold model on the event queue and shortest-path walks on a topology.

use std::hint::black_box;
use std::time::{Duration, Instant};

use oracle::des::{DualQueue, Rng};
use oracle::model::QueueBackend;
use oracle::topo::{PeId, Topology};

/// Pop+push pairs timed per hold measurement.
const HOLD_OPS: u64 = 1 << 20;

/// The event list the machine builds under `backend`.
pub fn queue_for(backend: QueueBackend) -> DualQueue<u32> {
    match backend {
        QueueBackend::Heap => DualQueue::heap_with_capacity(1024),
        QueueBackend::Calendar => DualQueue::calendar(),
    }
}

/// Mean ns per pop+push in the classic hold model: `depth` pending events,
/// each pop rescheduling one event 1..=20 time units ahead, the span of
/// the paper cost model's operation costs.
pub fn hold_ns(mut q: DualQueue<u32>, depth: usize, seed: u64) -> f64 {
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..depth.max(1) {
        q.schedule_after(1 + rng.below(20), i as u32);
    }
    // One pass over the whole population before timing, so that the
    // queue's time distribution is the steady state's.
    for _ in 0..depth {
        let (_, e) = q.pop().expect("hold model never drains");
        q.schedule_after(1 + rng.below(20), e);
    }
    let t0 = Instant::now();
    for _ in 0..HOLD_OPS {
        let (_, e) = q.pop().expect("hold model never drains");
        q.schedule_after(1 + rng.below(20), black_box(e));
    }
    black_box(q.now());
    t0.elapsed().as_nanos() as f64 / HOLD_OPS as f64
}

/// Route between seeded random PE pairs hop by hop with `next_hop`, over
/// at least 256 pairs and 20 ms. Returns `(hops, elapsed)`.
pub fn route_walks(topo: &Topology, seed: u64) -> (u64, Duration) {
    let mut rng = Rng::seed_from_u64(seed);
    let n = topo.num_pes() as u64;
    let (mut hops, mut pairs) = (0u64, 0u32);
    let t0 = Instant::now();
    while pairs < 256 || t0.elapsed() < Duration::from_millis(20) {
        let mut at = PeId(rng.below(n) as u32);
        let to = PeId(rng.below(n) as u32);
        while at != to {
            at = black_box(topo.next_hop(at, to));
            hops += 1;
        }
        pairs += 1;
    }
    (hops, t0.elapsed())
}
