//! Machine-state snapshot codec — the model half of checkpoint/resume.
//!
//! [`Machine::snapshot_bytes`] serializes every piece of *mutable* run
//! state — both RNG streams, all counters and statistics collectors, every
//! PE (queues, executing item, waiting tasks, known loads), every channel
//! (in-flight transfer and backlog), the recovery layer's tracking map, the
//! watchdog/auditor cursors, the pending event queue, and the strategy's
//! private state — into a self-contained byte blob using the
//! [`oracle_des::snapshot`] codec. Immutable state (topology, cost model,
//! configuration, program, fault plan, precomputed adjacency tables) is
//! *not* serialized: a resume rebuilds it by constructing the machine from
//! the same run configuration, then calling [`Machine::restore_bytes`]
//! instead of [`Machine::begin`].
//!
//! Each model type's layout is its [`Snap`] impl below; `snapshot_bytes`
//! and `restore_inner` walk the machine's fields through them in one fixed
//! order. Topology ids (`PeId`, `ChannelId`) travel as their `u32` index:
//! both they and the trait are foreign to this crate, so they get no impl.
//!
//! The format is designed for bit-identical resumption: floating-point
//! statistics are stored as raw IEEE-754 bits, hash maps are written in
//! sorted key order, and the event queue is written in exact pop order (the
//! one order both backends define identically), so a resumed run replays
//! precisely the event sequence the uninterrupted run would have processed.
//!
//! The event trace and the engine profiler are deliberately not part of a
//! snapshot — both are observability aids, not simulated state: a resumed
//! run's trace and profile simply start at the resume point (the simulated
//! results stay bit-identical either way).

use oracle_des::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use oracle_des::{QueueSnapshot, SimTime};
use oracle_topo::{ChannelId, PeId};

use crate::channel::Channel;
use crate::machine::{Event, Machine, Outstanding};
use crate::message::{ControlMsg, Flight, FlightDest, GoalId, GoalMsg, Packet};
use crate::open::{Inflight, OpenState, ProcessState};
use crate::pe::{Executing, Waiting, WorkItem};
use crate::program::{Expansion, TaskSpec};
use crate::SimError;

/// Magic prefix of a machine snapshot blob (`"MSNP"`).
pub const SNAPSHOT_MAGIC: u32 = 0x4D53_4E50;

/// Version of the machine snapshot layout. Bumped on any layout change;
/// restore refuses other versions rather than guessing.
///
/// v2 added the open-traffic block (arrival RNG, process cursor, in-flight
/// request table, sojourn/queue-length statistics).
///
/// v3 added the overload-protection block (retry RNG and pending-retry
/// table, token-bucket level, circuit-breaker table, shed/abandonment
/// counters, the `Retry` event tag, and per-request attempt counts).
///
/// v4 added the deterministic-ordering block (per-PE RNG streams,
/// per-actor event-key sequences, per-creator goal-id sequences replacing
/// the global goal counter, per-PE dispatch latency accumulators, and
/// explicit event-queue keys), which fixes a golden-stable tie order and
/// keeps each PE's random stream independent of the others.
///
/// v5 made the per-channel table and the per-PE dispatch-latency
/// accumulators mode-agnostic: both now encode as a count of materialized
/// slots plus sorted `(id, state)` pairs, so sparse and dense machines
/// round-trip the same state bit-identically (an untouched sparse slot
/// and a pristine dense slot are the same state, and neither is encoded
/// when sparse).
pub const SNAPSHOT_VERSION: u32 = 5;

impl Snap for GoalId {
    fn put(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(GoalId(r.u64()?))
    }
}

impl Snap for TaskSpec {
    fn put(&self, w: &mut SnapWriter) {
        w.i64(self.a);
        w.i64(self.b);
        w.u32(self.depth);
        w.u32(self.tag);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(TaskSpec {
            a: r.i64()?,
            b: r.i64()?,
            depth: r.u32()?,
            tag: r.u32()?,
        })
    }
}

/// Strategies that park goals (threshold probing) write them inside their
/// own state with this impl.
impl Snap for GoalMsg {
    fn put(&self, w: &mut SnapWriter) {
        self.id.put(w);
        self.spec.put(w);
        self.parent.map(|(pe, g)| (pe.0, g)).put(w);
        w.u32(self.hops);
        w.bool(self.direct);
        w.u64(self.created_at);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(GoalMsg {
            id: Snap::get(r)?,
            spec: Snap::get(r)?,
            parent: Option::<(u32, GoalId)>::get(r)?.map(|(pe, g)| (PeId(pe), g)),
            hops: r.u32()?,
            direct: r.bool()?,
            created_at: r.u64()?,
        })
    }
}

impl Snap for Packet {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Packet::Goal(g) => {
                w.u8(0);
                g.put(w);
            }
            Packet::Response { to, child, value } => {
                w.u8(1);
                w.u32(to.0 .0);
                (to.1, *child, *value).put(w);
            }
            Packet::Control(c) => {
                w.u8(2);
                w.u8(c.tag);
                w.i64(c.value);
            }
            Packet::LoadUpdate { load } => {
                w.u8(3);
                w.u32(*load);
            }
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Packet::Goal(Snap::get(r)?),
            1 => Packet::Response {
                to: (PeId(r.u32()?), Snap::get(r)?),
                child: Snap::get(r)?,
                value: r.i64()?,
            },
            2 => Packet::Control(ControlMsg {
                tag: r.u8()?,
                value: r.i64()?,
            }),
            3 => Packet::LoadUpdate { load: r.u32()? },
            t => return Err(SnapError::invalid("packet tag", t.into())),
        })
    }
}

impl Snap for Flight {
    fn put(&self, w: &mut SnapWriter) {
        w.u32(self.from.0);
        match self.dest {
            FlightDest::Unicast(pe) => {
                w.u8(0);
                w.u32(pe.0);
            }
            FlightDest::Broadcast => w.u8(1),
        }
        self.piggyback_load.put(w);
        self.packet.put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Flight {
            from: PeId(r.u32()?),
            dest: match r.u8()? {
                0 => FlightDest::Unicast(PeId(r.u32()?)),
                1 => FlightDest::Broadcast,
                t => return Err(SnapError::invalid("flight dest tag", t.into())),
            },
            piggyback_load: Snap::get(r)?,
            packet: Snap::get(r)?,
        })
    }
}

impl Snap for WorkItem {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            WorkItem::Goal(g) => {
                w.u8(0);
                g.put(w);
            }
            WorkItem::Response { goal, child, value } => {
                w.u8(1);
                (*goal, *child, *value).put(w);
            }
            WorkItem::Handle { from, packet } => {
                w.u8(2);
                w.u32(from.0);
                packet.put(w);
            }
            WorkItem::TimerWork { tag } => {
                w.u8(3);
                w.u64(*tag);
            }
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WorkItem::Goal(Snap::get(r)?),
            1 => {
                let (goal, child, value) = Snap::get(r)?;
                WorkItem::Response { goal, child, value }
            }
            2 => WorkItem::Handle {
                from: PeId(r.u32()?),
                packet: Snap::get(r)?,
            },
            3 => WorkItem::TimerWork { tag: r.u64()? },
            t => return Err(SnapError::invalid("work item tag", t.into())),
        })
    }
}

impl Snap for Expansion {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Expansion::Leaf(v) => {
                w.u8(0);
                w.i64(*v);
            }
            Expansion::Split(children) => {
                w.u8(1);
                children.put(w);
            }
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Expansion::Leaf(r.i64()?),
            1 => Expansion::Split(Snap::get(r)?),
            t => return Err(SnapError::invalid("expansion tag", t.into())),
        })
    }
}

impl Snap for Executing {
    fn put(&self, w: &mut SnapWriter) {
        match self {
            Executing::Goal(g, exp) => {
                w.u8(0);
                g.put(w);
                exp.put(w);
            }
            Executing::Response { goal, child, value } => {
                w.u8(1);
                (*goal, *child, *value).put(w);
            }
            Executing::Respawn { goal, children } => {
                w.u8(2);
                goal.put(w);
                children.put(w);
            }
            Executing::Handle { from, packet } => {
                w.u8(3);
                w.u32(from.0);
                packet.put(w);
            }
            Executing::TimerWork { tag } => {
                w.u8(4);
                w.u64(*tag);
            }
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Executing::Goal(Snap::get(r)?, Snap::get(r)?),
            1 => {
                let (goal, child, value) = Snap::get(r)?;
                Executing::Response { goal, child, value }
            }
            2 => Executing::Respawn {
                goal: Snap::get(r)?,
                children: Snap::get(r)?,
            },
            3 => Executing::Handle {
                from: PeId(r.u32()?),
                packet: Snap::get(r)?,
            },
            4 => Executing::TimerWork { tag: r.u64()? },
            t => return Err(SnapError::invalid("executing tag", t.into())),
        })
    }
}

impl Snap for Event {
    fn put(&self, w: &mut SnapWriter) {
        // One tag byte, then the payload: a PE or channel index, plus a
        // 64-bit word for timers and slowdowns, or a goal id.
        let (tag, id, word) = match *self {
            Event::PeDone(pe) => (0, Some(pe.0), None),
            Event::ChannelDone(ch) => (1, Some(ch.0), None),
            Event::Timer(pe, tag) => (2, Some(pe.0), Some(tag)),
            Event::LoadBcast(pe) => (3, Some(pe.0), None),
            Event::FailPe(pe) => (4, Some(pe.0), None),
            Event::LinkDown(ch) => (5, Some(ch.0), None),
            Event::LinkUp(ch) => (6, Some(ch.0), None),
            Event::SlowStart(pe, factor) => (7, Some(pe.0), Some(factor)),
            Event::SlowEnd(pe) => (8, Some(pe.0), None),
            Event::AckTimeout(goal) => (9, None, Some(goal.0)),
            Event::Arrival => (10, None, None),
            Event::Retry(goal) => (11, None, Some(goal.0)),
        };
        w.u8(tag);
        if let Some(id) = id {
            w.u32(id);
        }
        if let Some(word) = word {
            w.u64(word);
        }
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Event::PeDone(PeId(r.u32()?)),
            1 => Event::ChannelDone(ChannelId(r.u32()?)),
            2 => Event::Timer(PeId(r.u32()?), r.u64()?),
            3 => Event::LoadBcast(PeId(r.u32()?)),
            4 => Event::FailPe(PeId(r.u32()?)),
            5 => Event::LinkDown(ChannelId(r.u32()?)),
            6 => Event::LinkUp(ChannelId(r.u32()?)),
            7 => Event::SlowStart(PeId(r.u32()?), r.u64()?),
            8 => Event::SlowEnd(PeId(r.u32()?)),
            9 => Event::AckTimeout(Snap::get(r)?),
            10 => Event::Arrival,
            11 => Event::Retry(Snap::get(r)?),
            t => return Err(SnapError::invalid("event tag", t.into())),
        })
    }
}

impl Snap for Inflight {
    fn put(&self, w: &mut SnapWriter) {
        (self.request, self.arrived, self.attempts).put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let (request, arrived, attempts) = Snap::get(r)?;
        Ok(Inflight {
            request,
            arrived,
            attempts,
        })
    }
}

impl Snap for Waiting {
    fn put(&self, w: &mut SnapWriter) {
        self.spec.put(w);
        self.parent.map(|(pe, g)| (pe.0, g)).put(w);
        w.u32(self.pending);
        w.i64(self.acc);
        w.u32(self.round);
        w.u32(self.hops);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Waiting {
            spec: Snap::get(r)?,
            parent: Option::<(u32, GoalId)>::get(r)?.map(|(pe, g)| (PeId(pe), g)),
            pending: r.u32()?,
            acc: r.i64()?,
            round: r.u32()?,
            hops: r.u32()?,
        })
    }
}

impl Snap for Outstanding {
    fn put(&self, w: &mut SnapWriter) {
        self.parent.map(|(pe, g)| (pe.0, g)).put(w);
        self.spec.put(w);
        w.u32(self.attempts);
        w.u64(self.first_created);
        self.resident.map(|pe| pe.0).put(w);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Outstanding {
            parent: Option::<(u32, GoalId)>::get(r)?.map(|(pe, g)| (PeId(pe), g)),
            spec: Snap::get(r)?,
            attempts: r.u32()?,
            first_created: r.u64()?,
            resident: Option::<u32>::get(r)?.map(PeId),
        })
    }
}

impl Snap for Channel {
    fn put(&self, w: &mut SnapWriter) {
        self.in_flight.put(w);
        self.backlog.put(w);
        self.busy.put(w);
        w.u64(self.transfers);
        w.usize(self.max_backlog);
        w.bool(self.down);
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Channel {
            in_flight: Snap::get(r)?,
            backlog: Snap::get(r)?,
            busy: Snap::get(r)?,
            transfers: r.u64()?,
            max_backlog: r.usize()?,
            down: r.bool()?,
        })
    }
}

impl OpenState {
    /// Write the mutable open-traffic state. The immutable parameters
    /// (rates, edge list, windows, threshold, trace entries) are rebuilt
    /// from the run configuration on restore; only the cursors, counters,
    /// tables and statistics travel in the blob.
    fn put_state(&self, w: &mut SnapWriter) {
        self.rng.put(w);
        match &self.process {
            ProcessState::Poisson { .. } => w.u8(0),
            ProcessState::Burst { on, phase_end, .. } => {
                w.u8(1);
                (*on, *phase_end).put(w);
            }
            ProcessState::Diurnal { .. } => w.u8(2),
            ProcessState::Trace { idx, .. } => {
                w.u8(3);
                w.usize(*idx);
            }
        }
        w.u32(self.edge_idx);
        (
            self.next_request,
            self.arrivals_total,
            self.completions_total,
        )
            .put(w);
        self.saturated.put(w);
        (self.qlen_cur, self.qlen_last).put(w);
        self.sojourn.put(w);
        self.sojourn_stats.put(w);
        self.qlen_hist.put(w);
        self.inflight.put(w);
        // Overload protection (v3).
        self.retry_rng.put(w);
        (self.tokens, self.tokens_last).put(w);
        self.retry_pending.put(w);
        self.breaker.put(w);
        (self.shed_total, self.abandoned_deadline).put(w);
        (self.abandoned_deadline_measured, self.abandoned_retries).put(w);
        (self.retries_total, self.breaker_opens).put(w);
    }

    /// Restore state written by [`OpenState::put_state`] into this freshly
    /// built state, whose immutable parameters came from the configuration.
    fn restore_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        self.rng = Snap::get(r)?;
        match (&mut self.process, r.u8()?) {
            (ProcessState::Poisson { .. }, 0) | (ProcessState::Diurnal { .. }, 2) => {}
            (ProcessState::Burst { on, phase_end, .. }, 1) => {
                (*on, *phase_end) = Snap::get(r)?;
            }
            (ProcessState::Trace { entries, idx }, 3) => {
                let i = r.usize()?;
                if i > entries.len() {
                    return Err(SnapError::Mismatch(format!(
                        "snapshot arrival-trace cursor {i} exceeds this machine's trace \
                         length {}",
                        entries.len()
                    )));
                }
                *idx = i;
            }
            (_, t) => {
                return Err(SnapError::Mismatch(format!(
                    "snapshot arrival process (tag {t}) does not match this machine's \
                     configured process"
                )))
            }
        }
        self.edge_idx = r.u32()?;
        (
            self.next_request,
            self.arrivals_total,
            self.completions_total,
        ) = Snap::get(r)?;
        self.saturated = Snap::get(r)?;
        (self.qlen_cur, self.qlen_last) = Snap::get(r)?;
        self.sojourn = Snap::get(r)?;
        self.sojourn_stats = Snap::get(r)?;
        self.qlen_hist = Snap::get(r)?;
        self.inflight = Snap::get(r)?;
        self.retry_rng = Snap::get(r)?;
        (self.tokens, self.tokens_last) = Snap::get(r)?;
        self.retry_pending = Snap::get(r)?;
        self.breaker = Snap::get(r)?;
        (self.shed_total, self.abandoned_deadline) = Snap::get(r)?;
        (self.abandoned_deadline_measured, self.abandoned_retries) = Snap::get(r)?;
        (self.retries_total, self.breaker_opens) = Snap::get(r)?;
        Ok(())
    }
}

impl Machine {
    /// Serialize the machine's complete mutable state. Restoring the bytes
    /// into a machine freshly constructed from the same run configuration
    /// (via [`Machine::restore_bytes`]) continues the run bit-identically.
    ///
    /// Takes `&mut self` because serializing the event queue drains and
    /// rebuilds it (pop order is the one canonical order both backends
    /// share); the machine's observable state is unchanged.
    pub fn snapshot_bytes(&mut self) -> Vec<u8> {
        let queue = self.core.events.take_snapshot();
        let mut w = SnapWriter::with_capacity(4096);
        let core = &self.core;
        w.u32(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.usize(core.pes.len());
        w.usize(core.channels.len());
        core.rng.put(&mut w);
        core.fault_rng.put(&mut w);
        // Per-PE vectors are sized by the shape checked above, so they
        // carry no length prefix.
        for rng in &core.pe_rngs {
            rng.put(&mut w);
        }
        for s in core.key_seq.iter().chain(&core.goal_seq) {
            w.u32(*s);
        }
        let t = &core.traffic;
        for c in [
            core.goals_created,
            core.goals_executed,
            core.responses_processed,
            core.seq_work,
            t.goal_hops,
            t.response_hops,
            t.control_msgs,
            t.load_updates,
        ] {
            w.u64(c);
        }
        core.hop_hist.put(&mut w);
        // Dispatch-latency accumulators as sorted (pe, stats) pairs: the
        // materialized slots only, so sparse machines encode O(touched).
        let dispatch_slots = core.dispatch_latency.present();
        w.usize(dispatch_slots.len());
        for (pe, s) in dispatch_slots {
            w.u32(pe);
            s.put(&mut w);
        }
        core.global_series.put(&mut w);
        core.root_result.put(&mut w);
        core.last_progress.put(&mut w);
        (core.next_check, core.next_audit, core.last_audit_now).put(&mut w);
        let f = &core.faults;
        f.outstanding.put(&mut w);
        w.u32(f.pes_crashed);
        for c in [
            f.goals_lost,
            f.messages_dropped,
            f.goals_respawned,
            f.duplicate_responses,
            f.retries_exhausted,
        ] {
            w.u64(c);
        }
        f.recovery_latency.put(&mut w);
        // Open-traffic runtime state; presence must match the restoring
        // machine's configuration.
        w.bool(core.open.is_some());
        if let Some(open) = core.open.as_deref() {
            open.put_state(&mut w);
        }
        for pe in &core.pes {
            pe.queue.put(&mut w);
            pe.sys_queue.put(&mut w);
            pe.executing.put(&mut w);
            (pe.exec_start, pe.busy_until).put(&mut w);
            pe.waiting.put(&mut w);
            pe.known_load.put(&mut w);
            pe.busy.put(&mut w);
            pe.series.put(&mut w);
            (pe.queued_goals, pe.queued_responses).put(&mut w);
            (pe.goals_executed, pe.cost_factor, pe.failed).put(&mut w);
            (pe.transient_factor, pe.peak_queue).put(&mut w);
        }
        // Channels as sorted (id, state) pairs, materialized slots only.
        let chan_slots = core.channels.present();
        w.usize(chan_slots.len());
        for (cid, ch) in chan_slots {
            w.u32(cid);
            ch.put(&mut w);
        }
        (queue.now, queue.processed).put(&mut w);
        queue.events.put(&mut w);
        // The strategy's state, framed by its name and a length prefix.
        let mut state = SnapWriter::new();
        self.strategy.snapshot_state(&mut state);
        w.str(self.strategy.name());
        w.bytes(&state.into_bytes());
        self.core.events.restore_snapshot(queue);
        w.into_bytes()
    }

    /// Restore state captured by [`Machine::snapshot_bytes`] into this
    /// freshly constructed machine. Call *instead of* [`Machine::begin`] —
    /// everything `begin` arms (broadcasts, fault-plan events, the root
    /// goal) is already inside the snapshot — then drive the run with
    /// [`Machine::advance_until`] / [`Machine::finish`] as usual.
    ///
    /// Fails with [`SimError::InvalidConfig`] when the bytes are corrupt,
    /// from a different snapshot version, or from a machine with a
    /// different shape (PE/channel counts, degrees, strategy). A failed
    /// restore leaves the machine partially written — discard it.
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), SimError> {
        self.restore_inner(bytes).map_err(|e| {
            SimError::InvalidConfig(match e {
                SnapError::Mismatch(msg) => msg,
                e => format!("corrupt machine snapshot: {e}"),
            })
        })
    }

    fn restore_inner(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let r = &mut SnapReader::new(bytes);
        let magic = r.u32()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapError::Mismatch(format!(
                "not a machine snapshot (magic {magic:#010x})"
            )));
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::Mismatch(format!(
                "machine snapshot version {version} unsupported (expected {SNAPSHOT_VERSION})"
            )));
        }
        let core = &mut self.core;
        let num_pes = r.usize()?;
        let num_channels = r.usize()?;
        if num_pes != core.pes.len() || num_channels != core.channels.len() {
            return Err(SnapError::Mismatch(format!(
                "snapshot is of a {num_pes}-PE/{num_channels}-channel machine but this one has \
                 {} PEs and {} channels",
                core.pes.len(),
                core.channels.len()
            )));
        }
        core.rng = Snap::get(r)?;
        core.fault_rng = Snap::get(r)?;
        for rng in &mut core.pe_rngs {
            *rng = Snap::get(r)?;
        }
        for s in core.key_seq.iter_mut().chain(&mut core.goal_seq) {
            *s = r.u32()?;
        }
        let t = &mut core.traffic;
        for c in [
            &mut core.goals_created,
            &mut core.goals_executed,
            &mut core.responses_processed,
            &mut core.seq_work,
            &mut t.goal_hops,
            &mut t.response_hops,
            &mut t.control_msgs,
            &mut t.load_updates,
        ] {
            *c = r.u64()?;
        }
        core.hop_hist = Snap::get(r)?;
        core.dispatch_latency.reset();
        let n_dispatch = r.usize()?;
        if n_dispatch > num_pes {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n_dispatch} dispatch-latency slots for a {num_pes}-PE machine"
            )));
        }
        for _ in 0..n_dispatch {
            let pe = r.u32()?;
            if pe as usize >= num_pes {
                return Err(SnapError::Mismatch(format!(
                    "dispatch-latency slot for PE {pe} out of range (machine has {num_pes})"
                )));
            }
            *core.dispatch_latency.slot_mut(pe) = Snap::get(r)?;
        }
        core.global_series = Snap::get(r)?;
        core.root_result = Snap::get(r)?;
        core.last_progress = Snap::get(r)?;
        (core.next_check, core.next_audit, core.last_audit_now) = Snap::get(r)?;
        let f = &mut core.faults;
        f.outstanding = Snap::get(r)?;
        f.pes_crashed = r.u32()?;
        for c in [
            &mut f.goals_lost,
            &mut f.messages_dropped,
            &mut f.goals_respawned,
            &mut f.duplicate_responses,
            &mut f.retries_exhausted,
        ] {
            *c = r.u64()?;
        }
        f.recovery_latency = Snap::get(r)?;
        match (r.bool()?, core.open.as_deref_mut()) {
            (true, Some(open)) => open.restore_state(r)?,
            (false, None) => {}
            (true, None) => {
                return Err(SnapError::Mismatch(
                    "snapshot is of an open-traffic run but this machine is a closed run".into(),
                ))
            }
            (false, Some(_)) => {
                return Err(SnapError::Mismatch(
                    "snapshot is of a closed run but this machine has open traffic configured"
                        .into(),
                ))
            }
        }
        for pe in &mut core.pes {
            pe.queue = Snap::get(r)?;
            pe.sys_queue = Snap::get(r)?;
            pe.executing = Snap::get(r)?;
            (pe.exec_start, pe.busy_until) = Snap::get(r)?;
            pe.waiting = Snap::get(r)?;
            let known_load: Vec<u32> = Snap::get(r)?;
            if known_load.len() != pe.known_load.len() {
                return Err(SnapError::Mismatch(format!(
                    "snapshot PE {} has degree {} but this machine's has {}",
                    pe.id.0,
                    known_load.len(),
                    pe.known_load.len()
                )));
            }
            pe.known_load = known_load;
            pe.busy = Snap::get(r)?;
            pe.series = Snap::get(r)?;
            (pe.queued_goals, pe.queued_responses) = Snap::get(r)?;
            (pe.goals_executed, pe.cost_factor, pe.failed) = Snap::get(r)?;
            (pe.transient_factor, pe.peak_queue) = Snap::get(r)?;
        }
        core.channels.reset();
        let n_chan = r.usize()?;
        if n_chan > num_channels {
            return Err(SnapError::Mismatch(format!(
                "snapshot has {n_chan} channel slots for a {num_channels}-channel machine"
            )));
        }
        for _ in 0..n_chan {
            let cid = r.u32()?;
            if cid as usize >= num_channels {
                return Err(SnapError::Mismatch(format!(
                    "channel slot {cid} out of range (machine has {num_channels})"
                )));
            }
            *core.channels.get_mut(ChannelId(cid)) = Snap::get(r)?;
        }
        let (now, processed): (SimTime, u64) = Snap::get(r)?;
        let events: Vec<(SimTime, u64, Event)> = Snap::get(r)?;
        let mut prev = now;
        for &(at, ..) in &events {
            if at < prev {
                return Err(SnapError::Mismatch(format!(
                    "snapshot event queue is not in pop order ({at} after {prev})"
                )));
            }
            prev = at;
        }
        core.events.restore_snapshot(QueueSnapshot {
            now,
            processed,
            events,
        });
        let name = r.str()?;
        if name != self.strategy.name() {
            return Err(SnapError::Mismatch(format!(
                "strategy snapshot was taken from `{name}` but is being restored into `{}`",
                self.strategy.name()
            )));
        }
        let state = &mut SnapReader::new(r.bytes()?);
        r.finish()?;
        // Live routing tables are derived state: recompute them from the
        // restored health (a no-op back to `None` at full health), exactly
        // as the fault handlers maintained them along the original run.
        self.core.rebuild_live_routes();
        self.strategy.restore_state(state, &self.core)?;
        state.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineConfig, QueueBackend};
    use crate::cost::CostModel;
    use crate::faults::{FaultPlan, RecoveryParams};
    use crate::machine::Core;
    use crate::open::{ArrivalSpec, OpenTraffic};
    use crate::program::Program;
    use crate::strategy::Strategy;
    use oracle_topo::misc::ring;

    struct Fib(i64);

    impl Program for Fib {
        fn name(&self) -> String {
            format!("fib({})", self.0)
        }
        fn root(&self) -> TaskSpec {
            TaskSpec::new(self.0, 0)
        }
        fn expand(&self, spec: &TaskSpec) -> Expansion {
            if spec.a < 2 {
                Expansion::Leaf(spec.a)
            } else {
                Expansion::Split([spec.child(spec.a - 1, 0), spec.child(spec.a - 2, 0)].into())
            }
        }
        fn combine(&self, _spec: &TaskSpec, acc: i64, child: i64) -> i64 {
            acc + child
        }
    }

    /// Scatter goals one hop around the ring (exercises channels, known
    /// loads, and responses); stateless, so the default snapshot hooks
    /// apply.
    struct ScatterRing;

    impl Strategy for ScatterRing {
        fn name(&self) -> &'static str {
            "scatter-ring"
        }
        fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            let next = PeId((pe.0 + 1) % core.num_pes() as u32);
            core.forward_goal(pe, next, goal);
        }
        fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
            core.accept_goal(pe, goal);
        }
    }

    fn machine(cfg: MachineConfig) -> Machine {
        Machine::new(
            ring(4),
            Box::new(Fib(14)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap()
    }

    /// Drive a begun (or restored) machine to its end and render the full
    /// outcome — report or error — so success *and* failure trajectories
    /// must match bit-for-bit.
    fn run_to_end(mut m: Machine) -> String {
        match m.advance_until(None) {
            Ok(_) => format!("{:?}", m.finish().map(|(report, _)| report)),
            Err(e) => format!("Err({e:?})"),
        }
    }

    fn resume_matches_uninterrupted(cfg: MachineConfig) {
        let mut plain = machine(cfg.clone());
        plain.begin();
        let baseline = run_to_end(plain);

        let mut first = machine(cfg.clone());
        first.begin();
        let done = first.advance_until(Some(120)).unwrap();
        assert!(!done, "run should pause before completing");
        let bytes = first.snapshot_bytes();

        // The snapshotted machine itself keeps running to the same outcome…
        assert_eq!(run_to_end(first), baseline);

        // …and so does a fresh machine restored from the bytes.
        let mut resumed = machine(cfg);
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(run_to_end(resumed), baseline);
    }

    #[test]
    fn audited_run_is_bit_identical_to_unaudited() {
        let base = machine(MachineConfig::default().with_seed(5))
            .run()
            .unwrap();
        let audited = machine(MachineConfig {
            audit_every: 1,
            ..MachineConfig::default().with_seed(5)
        })
        .run()
        .unwrap();
        assert_eq!(format!("{audited:?}"), format!("{base:?}"));
    }

    #[test]
    fn resume_is_bit_identical_on_both_backends() {
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let cfg = MachineConfig {
                queue_backend: backend,
                ..MachineConfig::default().with_seed(7)
            };
            resume_matches_uninterrupted(cfg);
        }
    }

    #[test]
    fn resume_is_bit_identical_under_faults() {
        let cfg = MachineConfig {
            fault_plan: FaultPlan::default()
                .crash(2, 400)
                .with_loss(0.01)
                .with_recovery(RecoveryParams::default()),
            audit_every: 64,
            ..MachineConfig::default().with_seed(11)
        };
        resume_matches_uninterrupted(cfg);
    }

    #[test]
    fn open_resume_is_bit_identical_mid_measurement_window() {
        let spec: ArrivalSpec = "poisson:5".parse().unwrap();
        let cfg = MachineConfig {
            open: Some(OpenTraffic {
                warmup: 200,
                ..OpenTraffic::new(spec, 2000)
            }),
            ..MachineConfig::default().with_seed(9)
        };
        // Early pause (still in warmup).
        resume_matches_uninterrupted(cfg.clone());

        // Pause well inside the measurement window, where sojourn samples
        // and the in-flight table are non-trivial.
        let mut plain = machine(cfg.clone());
        plain.begin();
        let baseline = run_to_end(plain);

        let mut first = machine(cfg.clone());
        first.begin();
        let done = first.advance_until(Some(900)).unwrap();
        assert!(!done, "open run should pause before its horizon");
        let bytes = first.snapshot_bytes();
        assert_eq!(run_to_end(first), baseline);

        let mut resumed = machine(cfg);
        resumed.restore_bytes(&bytes).unwrap();
        assert_eq!(run_to_end(resumed), baseline);

        // An open snapshot refuses a closed machine (and vice versa).
        let mut closed = machine(MachineConfig::default().with_seed(9));
        let err = closed.restore_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("open-traffic"), "{err}");
    }

    #[test]
    fn overload_state_resume_is_bit_identical_under_faults() {
        // Deadline + retry + admission + breaker all active, plus a crash
        // and message loss, so the v3 block (retry RNG, pending retries,
        // bucket level, breaker table, counters) is non-trivial at the
        // pause point.
        let spec: ArrivalSpec = "poisson:5".parse().unwrap();
        let cfg = MachineConfig {
            open: Some(OpenTraffic {
                warmup: 200,
                deadline: Some(600),
                retry: Some("3x50".parse().unwrap()),
                admission: Some("bucket:8x4".parse().unwrap()),
                breaker: Some(300),
                ..OpenTraffic::new(spec, 2000)
            }),
            fault_plan: FaultPlan::default().crash(2, 600).with_loss(0.02),
            ..MachineConfig::default().with_seed(13)
        };
        for backend in [QueueBackend::Heap, QueueBackend::Calendar] {
            let cfg = MachineConfig {
                queue_backend: backend,
                ..cfg.clone()
            };
            let mut plain = machine(cfg.clone());
            plain.begin();
            let baseline = run_to_end(plain);

            // Pause after the crash so breaker/retry state is in play.
            let mut first = machine(cfg.clone());
            first.begin();
            let done = first.advance_until(Some(900)).unwrap();
            assert!(!done, "overload run should pause before its horizon");
            let bytes = first.snapshot_bytes();
            assert_eq!(run_to_end(first), baseline);

            let mut resumed = machine(cfg);
            resumed.restore_bytes(&bytes).unwrap();
            assert_eq!(run_to_end(resumed), baseline);
        }
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_blobs() {
        let cfg = MachineConfig::default().with_seed(3);
        let mut m = machine(cfg.clone());
        m.begin();
        m.advance_until(Some(50)).unwrap();
        let bytes = m.snapshot_bytes();

        // Truncation anywhere is a decode error, not a panic.
        let mut fresh = machine(cfg.clone());
        let err = fresh.restore_bytes(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)), "{err}");

        // Garbage magic is rejected up front.
        let mut fresh = machine(cfg.clone());
        let err = fresh.restore_bytes(&[0u8; 64]).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // A machine of a different shape refuses the blob.
        let mut other = Machine::new(
            ring(8),
            Box::new(Fib(14)),
            Box::new(ScatterRing),
            CostModel::unit(),
            cfg,
        )
        .unwrap();
        let err = other.restore_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("8 PEs"), "{err}");
    }
}
