//! The concrete topology type: channel sets, adjacency, and routing.
//!
//! Storage is compressed sparse rows (CSR) for both the channel member
//! sets and the per-PE neighbour lists, so a topology costs O(PEs + edges)
//! memory. Routing goes through a per-family `Router`: the regular
//! topologies (grid, torus, hypercube, k-ary n-cube) answer distance
//! queries arithmetically and carry no table at all; small arbitrary
//! graphs keep the classic dense all-pairs table; large arbitrary graphs
//! use a lazy BFS-on-demand router with a bounded row cache. All three
//! produce bit-identical next hops (pinned by tests): the next hop from
//! `a` toward `b` is always the first neighbour of `a`, in sorted PE-id
//! order, whose distance to `b` is one less than `a`'s.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a processing element, dense in `0..num_pes`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PeId(pub u32);

impl PeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// Identifier of a communication channel (link or bus), dense in
/// `0..num_channels`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// One entry of a PE's neighbour list: the neighbouring PE and the channel a
/// message to it travels over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Neighbor {
    /// The adjacent PE.
    pub pe: PeId,
    /// The channel connecting them (lowest-numbered one if several do).
    pub channel: ChannelId,
}

/// A malformed topology specification or graph file. The message cites the
/// offending token or line and the grammar it violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Arbitrary graphs at or below this many PEs precompute the dense
/// all-pairs table; larger ones route through the lazy BFS router. The
/// regular families (grid/torus/hypercube/k-ary) never build a table.
pub const DENSE_ROUTER_LIMIT: usize = 2048;

/// Bound on the lazy router's cached BFS distance rows (one row is
/// `4 * num_pes` bytes); rows are evicted FIFO beyond this.
const LAZY_CACHE_ROWS: usize = 32;

/// How shortest-path queries are answered. Everything except `Dense` is
/// O(1) or O(active) memory; `Dense` is the classic O(n²) table kept only
/// for small arbitrary graphs.
enum Router {
    /// Flattened `[from * num_pes + to]` next-hop and distance tables.
    Dense { next_hop: Vec<PeId>, dist: Vec<u32> },
    /// 2-D mesh, row-major `id = y * width + x`; `wrap` adds per-dimension
    /// torus links on dimensions longer than 2.
    Grid { width: u32, height: u32, wrap: bool },
    /// Binary hypercube: distance is the Hamming distance of the ids.
    Hypercube,
    /// k-ary n-cube, digit strides `k^d`; per-dimension ring distance.
    KAry { k: u32, n: u32 },
    /// BFS on demand with a bounded per-target row cache.
    Lazy(LazyRouter),
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Router::Dense { dist, .. } => write!(f, "Dense({} entries)", dist.len()),
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                write!(f, "Grid({width}x{height}, wrap={wrap})")
            }
            Router::Hypercube => write!(f, "Hypercube"),
            Router::KAry { k, n } => write!(f, "KAry({k}^{n})"),
            Router::Lazy(_) => write!(f, "Lazy"),
        }
    }
}

impl Clone for Router {
    fn clone(&self) -> Self {
        match self {
            Router::Dense { next_hop, dist } => Router::Dense {
                next_hop: next_hop.clone(),
                dist: dist.clone(),
            },
            Router::Grid {
                width,
                height,
                wrap,
            } => Router::Grid {
                width: *width,
                height: *height,
                wrap: *wrap,
            },
            Router::Hypercube => Router::Hypercube,
            Router::KAry { k, n } => Router::KAry { k: *k, n: *n },
            // The cache is a pure memo — a clone starts cold.
            Router::Lazy(_) => Router::Lazy(LazyRouter::new()),
        }
    }
}

/// BFS-on-demand distance oracle for large arbitrary graphs.
///
/// A query without a cached row runs an exact bidirectional BFS: one ball
/// grows out of `from`, one out of `target`, and each step widens the
/// ball with the smaller frontier by one whole level. The search stops
/// after the first level that discovers a PE already inside the other
/// ball, so it touches about `2 · deg^(d/2)` PEs for a distance `d` — the
/// one-sided ball of radius `d` it replaces touched about `deg^d`, and
/// hop-by-hop response routing pays that once per hop.
///
/// Rows are keyed by the *target* PE (distances are symmetric on an
/// undirected graph). A target whose cumulative search work exceeds a
/// couple of full sweeps is promoted to a cached full row, so hot sinks
/// (the root PE collecting results) amortize to O(1) lookups. Either path
/// returns the exact distance and the same deterministic hop, so cache
/// state can never change simulation results.
///
/// The cache sits in a `RefCell`: a topology is queried from one thread
/// at a time (each run owns its machine), so no lock is needed.
struct LazyRouter {
    cache: RefCell<RowCache>,
}

#[derive(Default)]
struct RowCache {
    rows: std::collections::HashMap<u32, Vec<u32>>,
    fifo: VecDeque<u32>,
    /// Cumulative search node visits per target; a target is promoted to
    /// a full cached row once this exceeds [`PROMOTE_WORK_SWEEPS`] full
    /// sweeps. Cleared wholesale if it ever grows past
    /// [`WORK_LEDGER_CAP`] entries (only the amortization stats are lost).
    work: std::collections::HashMap<u32, u64>,
    /// Boxed so the router enum stays small.
    scratch: Box<BfsScratch>,
}

/// Reusable buffers of the bidirectional search. Every per-PE entry is
/// valid only when its stamp equals `epoch`, so queries reuse the buffers
/// without an O(n) clear between them.
#[derive(Default)]
struct BfsScratch {
    /// The ball around `from`.
    fwd: Ball,
    /// The ball around `target`.
    bwd: Ball,
    /// PEs known to lie on a shortest `from → target` path (hop walk).
    on_path: Vec<u32>,
    epoch: u32,
}

/// One side of the bidirectional search: a BFS ball grown one whole
/// level at a time.
#[derive(Default)]
struct Ball {
    /// Per-PE `(stamp, distance from the centre)`.
    seen: Vec<(u32, u32)>,
    /// The ball's PEs in discovery order, so by non-decreasing distance.
    order: Vec<u32>,
    /// Where the outermost level starts in `order`.
    frontier: usize,
    radius: u32,
}

impl Ball {
    fn start(&mut self, centre: PeId, epoch: u32) {
        self.seen[centre.idx()] = (epoch, 0);
        self.order.clear();
        self.order.push(centre.0);
        self.frontier = 0;
        self.radius = 0;
    }

    fn frontier_len(&self) -> usize {
        self.order.len() - self.frontier
    }

    /// Distance from the centre, if `pe` is inside the ball.
    #[inline]
    fn dist(&self, pe: usize, epoch: u32) -> Option<u32> {
        let (stamp, d) = self.seen[pe];
        (stamp == epoch).then_some(d)
    }

    /// Widen the ball by one level. True if the new level holds a PE that
    /// is already inside `other`.
    fn grow(&mut self, topo: &Topology, epoch: u32, other: &Ball) -> bool {
        let end = self.order.len();
        self.radius += 1;
        let mut met = false;
        for i in self.frontier..end {
            for nb in topo.neighbors(PeId(self.order[i])) {
                let u = nb.pe.idx();
                if self.seen[u].0 != epoch {
                    self.seen[u] = (epoch, self.radius);
                    self.order.push(nb.pe.0);
                    met |= other.seen[u].0 == epoch;
                }
            }
        }
        self.frontier = end;
        met
    }
}

/// Search work (in units of full BFS sweeps) a target may burn before it
/// is promoted to a cached full row.
const PROMOTE_WORK_SWEEPS: u64 = 2;

/// Hard cap on the work-ledger size; reaching it resets the ledger.
const WORK_LEDGER_CAP: usize = 8192;

impl LazyRouter {
    fn new() -> Self {
        LazyRouter {
            cache: RefCell::new(RowCache::default()),
        }
    }

    /// Exact `dist(from, target)` plus (when `want_hop`) the first
    /// neighbour of `from` in sorted PE-id order that lies one hop closer
    /// to `target` — identical to what the dense table would answer.
    ///
    /// Served from a cached full row when one exists; otherwise by the
    /// bidirectional search. When it stops with radii `a` (around `from`)
    /// and `b` (around `target`), `dist = a + b` exactly: the balls were
    /// disjoint one level earlier, so `dist > a + b - 1`, and the PE that
    /// met them is at most `a + b` from both ends. Every PE of the last
    /// level found in both balls is then at exactly `a` and `b`. The hop:
    /// - `a ≤ 1`: the target's ball holds every PE within `b = d - a` of
    ///   the target, so the first neighbour of `from` at distance `d - 1`
    ///   in it is the answer;
    /// - `a ≥ 2`: a neighbour of `from` is on a shortest path iff a
    ///   shortest path from it reaches the meeting set `{a, b}`. The walk
    ///   marks that set and carries the marks one level inward at a time,
    ///   visiting `from`'s ball in reverse discovery order.
    fn query(&self, topo: &Topology, from: PeId, target: PeId, want_hop: bool) -> (u32, PeId) {
        let mut cache = self.cache.borrow_mut();
        let cache = &mut *cache;
        if let Some(row) = cache.rows.get(&target.0) {
            return (row[from.idx()], hop_from_row(topo, from, row, want_hop));
        }

        let n = topo.num_pes;
        let s = &mut cache.scratch;
        if s.on_path.len() < n {
            s.fwd.seen.resize(n, (0, 0));
            s.bwd.seen.resize(n, (0, 0));
            s.on_path.resize(n, 0);
        }
        s.epoch = s.epoch.wrapping_add(1);
        if s.epoch == 0 {
            // One O(n) reset every 2^32 queries keeps stale stamps from a
            // previous epoch cycle from aliasing the current one.
            s.fwd.seen.fill((0, 0));
            s.bwd.seen.fill((0, 0));
            s.on_path.fill(0);
            s.epoch = 1;
        }
        let epoch = s.epoch;
        s.fwd.start(from, epoch);
        s.bwd.start(target, epoch);
        let mut met = from == target;
        while !met && s.fwd.frontier_len().min(s.bwd.frontier_len()) > 0 {
            met = if s.fwd.frontier_len() <= s.bwd.frontier_len() {
                s.fwd.grow(topo, epoch, &s.bwd)
            } else {
                s.bwd.grow(topo, epoch, &s.fwd)
            };
        }
        let (a, b) = (s.fwd.radius, s.bwd.radius);
        let d = if met { a + b } else { u32::MAX };
        let hop = if !want_hop {
            from
        } else if a <= 1 {
            let want = d.checked_sub(1).expect("next_hop target must be reachable");
            topo.neighbors(from)
                .iter()
                .find(|nb| s.bwd.dist(nb.pe.idx(), epoch) == Some(want))
                .map(|nb| nb.pe)
                .expect("connected graph has a descending neighbour")
        } else {
            // Level 1 is `from`'s neighbour list, discovered first.
            let level1_end = 1 + topo.degree(from);
            for i in (level1_end..s.fwd.order.len()).rev() {
                let v = s.fwd.order[i] as usize;
                let (_, k) = s.fwd.seen[v];
                let marked = if k == a {
                    s.bwd.dist(v, epoch) == Some(b)
                } else {
                    s.on_path[v] == epoch
                };
                if marked {
                    for nb in topo.neighbors(PeId(v as u32)) {
                        if s.fwd.dist(nb.pe.idx(), epoch) == Some(k - 1) {
                            s.on_path[nb.pe.idx()] = epoch;
                        }
                    }
                }
            }
            topo.neighbors(from)
                .iter()
                .find(|nb| s.on_path[nb.pe.idx()] == epoch)
                .map(|nb| nb.pe)
                .expect("connected graph has a descending neighbour")
        };
        let visited = (s.fwd.order.len() + s.bwd.order.len()) as u64;

        // Amortization ledger: promote targets that keep costing searches
        // to a full cached row.
        if cache.work.len() >= WORK_LEDGER_CAP {
            cache.work.clear();
        }
        let spent = cache.work.entry(target.0).or_insert(0);
        *spent += visited;
        if *spent > PROMOTE_WORK_SWEEPS * n as u64 {
            cache.work.remove(&target.0);
            let row = topo.bfs_row(target);
            if cache.fifo.len() >= LAZY_CACHE_ROWS {
                if let Some(old) = cache.fifo.pop_front() {
                    cache.rows.remove(&old);
                }
            }
            cache.fifo.push_back(target.0);
            cache.rows.insert(target.0, row);
        }
        (d, hop)
    }
}

/// Descending-neighbour scan against a full cached row.
fn hop_from_row(topo: &Topology, from: PeId, row: &[u32], want_hop: bool) -> PeId {
    if !want_hop {
        return from;
    }
    let d = row[from.idx()];
    topo.neighbors(from)
        .iter()
        .find(|n| row[n.pe.idx()] == d - 1)
        .map(|n| n.pe)
        .expect("connected graph has a descending neighbour")
}

/// An interconnection topology: PEs, channels, adjacency, and shortest-path
/// routing.
///
/// Built via the constructors in [`crate::mesh`], [`crate::dlm`],
/// [`crate::hypercube`], [`crate::misc`], or generically through
/// [`Topology::from_channels`].
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_pes: usize,
    /// CSR member PEs of each channel (sorted within a channel):
    /// channel `c` owns `chan_pes[chan_off[c]..chan_off[c + 1]]`.
    chan_off: Vec<usize>,
    chan_pes: Vec<PeId>,
    /// CSR sorted neighbour list per PE (one entry per distinct
    /// neighbour): PE `p` owns `adj[adj_off[p]..adj_off[p + 1]]`.
    adj_off: Vec<usize>,
    adj: Vec<Neighbor>,
    router: Router,
    diameter: u32,
}

impl Topology {
    /// Build a topology from the member sets of its channels.
    ///
    /// # Panics
    ///
    /// Panics if `num_pes == 0`, a channel has fewer than two distinct
    /// members or an out-of-range member, or the resulting graph is not
    /// connected — all of those are construction bugs, not runtime
    /// conditions.
    pub fn from_channels(
        name: impl Into<String>,
        num_pes: usize,
        channels: Vec<Vec<PeId>>,
    ) -> Self {
        match Self::build_structure(name.into(), num_pes, channels) {
            Ok(mut t) => {
                t.attach_generic_router();
                t
            }
            Err(SpecError(msg)) => panic!("{msg}"),
        }
    }

    /// Build CSR structure and validate membership; the router is attached
    /// by the caller (arithmetic for the regular families, dense/lazy
    /// otherwise).
    fn build_structure(
        name: String,
        num_pes: usize,
        channels: Vec<Vec<PeId>>,
    ) -> Result<Self, SpecError> {
        if num_pes == 0 {
            return Err(SpecError(format!("topology {name:?} has no PEs")));
        }
        // All ids must round-trip through the u32 `PeId`/`ChannelId` space;
        // `try_from` instead of `as` so oversized graphs fail loudly
        // instead of wrapping.
        u32::try_from(num_pes).map_err(|_| {
            SpecError(format!(
                "topology {name:?} has {num_pes} PEs, more than PE ids (u32) can address"
            ))
        })?;
        u32::try_from(channels.len()).map_err(|_| {
            SpecError(format!(
                "topology {name:?} has {} channels, more than channel ids (u32) can address",
                channels.len()
            ))
        })?;

        // Normalize channel member sets into CSR.
        let mut chan_off: Vec<usize> = Vec::with_capacity(channels.len() + 1);
        chan_off.push(0);
        let mut chan_pes: Vec<PeId> = Vec::new();
        for members in channels {
            let mut m = members;
            m.sort_unstable();
            m.dedup();
            if m.len() < 2 {
                return Err(SpecError(format!(
                    "channel in {name:?} has fewer than two distinct members"
                )));
            }
            if m.last().unwrap().idx() >= num_pes {
                return Err(SpecError(format!(
                    "channel member out of range in {name:?}"
                )));
            }
            chan_pes.extend_from_slice(&m);
            chan_off.push(chan_pes.len());
        }

        // Adjacency: lowest channel id wins when PEs share several channels.
        // Emitted as (pe, neighbor) pairs, then sorted into CSR — channels
        // are visited in id order, so the *stable* sort keeps the lowest
        // channel first and `dedup_by_key` keeps exactly that entry.
        let mut pairs: Vec<(PeId, Neighbor)> = Vec::new();
        for cid in 0..chan_off.len() - 1 {
            let channel = ChannelId(cid as u32); // bounded by the try_from above
            let members = &chan_pes[chan_off[cid]..chan_off[cid + 1]];
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    pairs.push((a, Neighbor { pe: b, channel }));
                    pairs.push((b, Neighbor { pe: a, channel }));
                }
            }
        }
        pairs.sort_by_key(|(p, n)| (*p, n.pe));
        pairs.dedup_by_key(|(p, n)| (*p, n.pe));
        let mut adj_off: Vec<usize> = Vec::with_capacity(num_pes + 1);
        let mut adj: Vec<Neighbor> = Vec::with_capacity(pairs.len());
        let mut cursor = 0usize;
        adj_off.push(0);
        for (p, n) in pairs {
            while cursor < p.idx() {
                adj_off.push(adj.len());
                cursor += 1;
            }
            adj.push(n);
        }
        while cursor < num_pes {
            adj_off.push(adj.len());
            cursor += 1;
        }
        debug_assert_eq!(adj_off.len(), num_pes + 1);

        Ok(Topology {
            name,
            num_pes,
            chan_off,
            chan_pes,
            adj_off,
            adj,
            router: Router::Hypercube, // placeholder; callers attach the real one
            diameter: 0,
        })
    }

    /// Attach the router for an arbitrary graph: dense all-pairs tables up
    /// to [`DENSE_ROUTER_LIMIT`] PEs, the lazy BFS router beyond. Both
    /// verify connectivity.
    fn attach_generic_router(&mut self) {
        if self.num_pes <= DENSE_ROUTER_LIMIT {
            self.build_dense_router();
        } else {
            self.build_lazy_router();
        }
    }

    /// All-pairs BFS tables (small arbitrary graphs only).
    fn build_dense_router(&mut self) {
        let n = self.num_pes;
        let mut dist = vec![u32::MAX; n * n];
        let mut next_hop = vec![PeId(u32::MAX); n * n];
        let mut diameter = 0u32;
        let mut queue = VecDeque::new();
        for src in 0..n {
            let base = src * n;
            dist[base + src] = 0;
            next_hop[base + src] = PeId(src as u32);
            queue.clear();
            queue.push_back(src);
            while let Some(v) = queue.pop_front() {
                let dv = dist[base + v];
                for n in self.neighbors(PeId(v as u32)) {
                    let u = n.pe.idx();
                    if dist[base + u] == u32::MAX {
                        dist[base + u] = dv + 1;
                        // First hop from src toward u: if v is the source the
                        // first hop is u itself, otherwise inherit v's.
                        next_hop[base + u] = if v == src { n.pe } else { next_hop[base + v] };
                        diameter = diameter.max(dv + 1);
                        queue.push_back(u);
                    }
                }
            }
            assert!(
                dist[base..base + n].iter().all(|&d| d != u32::MAX),
                "topology {:?} is not connected (unreachable from PE {src})",
                self.name
            );
        }
        self.router = Router::Dense { next_hop, dist };
        self.diameter = diameter;
    }

    /// Lazy router for large arbitrary graphs: one BFS proves
    /// connectivity, a second (double-sweep) estimates the diameter.
    fn build_lazy_router(&mut self) {
        let row0 = self.bfs_row(PeId(0));
        let (far, ecc0) = row0
            .iter()
            .enumerate()
            .max_by_key(|&(_, &d)| (d != u32::MAX) as u64 * (d as u64 + 1))
            .map(|(i, &d)| (i, d))
            .expect("non-empty topology");
        assert!(
            !row0.contains(&u32::MAX),
            "topology {:?} is not connected (unreachable from PE 0)",
            self.name
        );
        let ecc_far = self
            .bfs_row(PeId(far as u32))
            .into_iter()
            .max()
            .unwrap_or(ecc0);
        // Double-sweep lower bound — exact on trees and typically exact or
        // near-exact on the sparse random graphs this router serves. The
        // machine uses it only to size histograms (which carry explicit
        // overflow counters), never for correctness.
        self.diameter = ecc_far.max(ecc0);
        self.router = Router::Lazy(LazyRouter::new());
    }

    /// One BFS from `src`: distances to every PE (`u32::MAX` = unreachable).
    fn bfs_row(&self, src: PeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_pes];
        let mut queue = VecDeque::new();
        dist[src.idx()] = 0;
        queue.push_back(src.idx());
        while let Some(v) = queue.pop_front() {
            let dv = dist[v];
            for n in self.neighbors(PeId(v as u32)) {
                let u = n.pe.idx();
                if dist[u] == u32::MAX {
                    dist[u] = dv + 1;
                    queue.push_back(u);
                }
            }
        }
        dist
    }

    /// Attach an arithmetic (table-free) router. `diameter` must be the
    /// exact diameter; the regular-family constructors compute it in
    /// closed form. Used by [`crate::mesh`], [`crate::hypercube`], and
    /// [`crate::kary`].
    pub(crate) fn with_arithmetic_router(
        name: impl Into<String>,
        num_pes: usize,
        channels: Vec<Vec<PeId>>,
        kind: ArithmeticRouter,
        diameter: u32,
    ) -> Self {
        let name = name.into();
        let mut t = match Self::build_structure(name, num_pes, channels) {
            Ok(t) => t,
            Err(SpecError(msg)) => panic!("{msg}"),
        };
        t.router = match kind {
            ArithmeticRouter::Grid {
                width,
                height,
                wrap,
            } => Router::Grid {
                width,
                height,
                wrap,
            },
            ArithmeticRouter::Hypercube => Router::Hypercube,
            ArithmeticRouter::KAry { k, n } => Router::KAry { k, n },
        };
        t.diameter = diameter;
        t
    }

    /// Replace this topology's router with the lazy BFS router (keeping
    /// the already-computed exact diameter). For tests pinning
    /// lazy-vs-dense routing equivalence on small graphs.
    pub fn force_lazy_router(mut self) -> Self {
        self.router = Router::Lazy(LazyRouter::new());
        self
    }

    /// Human-readable name, e.g. `"grid 10x10"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processing elements.
    #[inline]
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Number of channels (links plus buses).
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.chan_off.len() - 1
    }

    /// All PE ids.
    pub fn pes(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.num_pes as u32).map(PeId)
    }

    /// The sorted member PEs of channel `c`.
    #[inline]
    pub fn channel_members(&self, c: ChannelId) -> &[PeId] {
        &self.chan_pes[self.chan_off[c.idx()]..self.chan_off[c.idx() + 1]]
    }

    /// The sorted neighbour list of `pe`.
    #[inline]
    pub fn neighbors(&self, pe: PeId) -> &[Neighbor] {
        &self.adj[self.adj_off[pe.idx()]..self.adj_off[pe.idx() + 1]]
    }

    /// Number of distinct neighbours of `pe`.
    pub fn degree(&self, pe: PeId) -> usize {
        self.adj_off[pe.idx() + 1] - self.adj_off[pe.idx()]
    }

    /// True if `a` and `b` share a channel.
    pub fn is_neighbor(&self, a: PeId, b: PeId) -> bool {
        self.neighbors(a).binary_search_by_key(&b, |n| n.pe).is_ok()
    }

    /// The channel a single-hop message from `a` to its neighbour `b` uses.
    pub fn channel_between(&self, a: PeId, b: PeId) -> Option<ChannelId> {
        self.neighbors(a)
            .binary_search_by_key(&b, |n| n.pe)
            .ok()
            .map(|i| self.neighbors(a)[i].channel)
    }

    /// Shortest-path distance in hops.
    #[inline]
    pub fn distance(&self, from: PeId, to: PeId) -> u32 {
        match &self.router {
            Router::Dense { dist, .. } => dist[from.idx() * self.num_pes + to.idx()],
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                let (w, h) = (*width, *height);
                let (x1, y1) = (from.0 % w, from.0 / w);
                let (x2, y2) = (to.0 % w, to.0 / w);
                let _ = h;
                dim_distance(x1, x2, w, *wrap) + dim_distance(y1, y2, h, *wrap)
            }
            Router::Hypercube => (from.0 ^ to.0).count_ones(),
            Router::KAry { k, n } => {
                let (mut a, mut b, mut d) = (from.0, to.0, 0u32);
                for _ in 0..*n {
                    d += dim_distance(a % k, b % k, *k, true);
                    a /= k;
                    b /= k;
                }
                d
            }
            Router::Lazy(lazy) => {
                if from == to {
                    0
                } else if self.is_neighbor(from, to) {
                    // The dominant query on neighbourhood-local strategies;
                    // answered without touching the row cache.
                    1
                } else {
                    lazy.query(self, from, to, false).0
                }
            }
        }
    }

    /// The neighbour of `from` that lies on a shortest path to `to`.
    /// Returns `from` itself when `from == to`.
    ///
    /// Deterministic across all routers: the hop is the first neighbour of
    /// `from` in sorted PE-id order whose distance to `to` is one less
    /// than `from`'s — exactly the hop the dense BFS table discovers,
    /// since BFS layers fill in sorted-neighbour order.
    #[inline]
    pub fn next_hop(&self, from: PeId, to: PeId) -> PeId {
        if from == to {
            return from;
        }
        match &self.router {
            Router::Dense { next_hop, .. } => next_hop[from.idx() * self.num_pes + to.idx()],
            Router::Lazy(lazy) => lazy.query(self, from, to, true).1,
            _ => {
                let d = self.distance(from, to);
                self.neighbors(from)
                    .iter()
                    .find(|n| self.distance(n.pe, to) == d - 1)
                    .map(|n| n.pe)
                    .expect("connected graph has a descending neighbour")
            }
        }
    }

    /// The network diameter in hops. Exact for every constructor except
    /// huge arbitrary graphs on the lazy router, where it is a
    /// double-sweep BFS estimate (a lower bound, exact on trees).
    #[inline]
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Mean shortest-path distance over ordered pairs of distinct PEs.
    ///
    /// Closed-form for the arithmetic families, exact table sum for dense
    /// graphs; on the lazy router it is exact up to 4096 PEs (all-source
    /// BFS) and a deterministic 64-source sample beyond.
    pub fn mean_distance(&self) -> f64 {
        let n = self.num_pes as u128;
        if n < 2 {
            return 0.0;
        }
        let pairs = (n * (n - 1)) as f64;
        match &self.router {
            Router::Dense { dist, .. } => {
                let sum: u64 = dist.iter().map(|&d| d as u64).sum();
                sum as f64 / pairs
            }
            Router::Grid {
                width,
                height,
                wrap,
            } => {
                let (w, h) = (*width as u128, *height as u128);
                let sum =
                    dim_pair_sum(*width, *wrap) * h * h + dim_pair_sum(*height, *wrap) * w * w;
                sum as f64 / pairs
            }
            Router::Hypercube => {
                // Each of the `dim` bits differs in exactly half of the
                // n² ordered pairs.
                let dim = (self.num_pes as u64).trailing_zeros() as u128;
                let sum = dim * n * n / 2;
                sum as f64 / pairs
            }
            Router::KAry { k, n: dims } => {
                let per_dim = dim_pair_sum(*k, true);
                let rest = n / *k as u128; // k^(dims-1)
                let sum = per_dim * rest * rest * (*dims as u128);
                sum as f64 / pairs
            }
            Router::Lazy(_) => {
                let exact = self.num_pes <= 4096;
                let stride = if exact { 1 } else { (self.num_pes / 64).max(1) };
                let sources: Vec<usize> = (0..self.num_pes).step_by(stride).collect();
                let mut sum = 0u128;
                for &s in &sources {
                    let row = self.bfs_row(PeId(s as u32));
                    sum += row.iter().map(|&d| d as u128).sum::<u128>();
                }
                let per_source_pairs = (self.num_pes - 1) as f64;
                sum as f64 / (sources.len() as f64 * per_source_pairs)
            }
        }
    }

    /// Render the topology as Graphviz DOT (links as edges; buses as
    /// box-shaped hyperedge nodes connected to their members), for
    /// visual inspection with `dot -Tsvg`.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{", self.name);
        let _ = writeln!(out, "  node [shape=circle];");
        for ci in 0..self.num_channels() {
            let members = self.channel_members(ChannelId(ci as u32));
            if members.len() == 2 {
                let _ = writeln!(out, "  p{} -- p{};", members[0].0, members[1].0);
            } else {
                let _ = writeln!(out, "  b{ci} [shape=box, label=\"bus {ci}\"];");
                for m in members {
                    let _ = writeln!(out, "  b{ci} -- p{};", m.0);
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Exhaustive structural self-check, used by tests: adjacency symmetry,
    /// routing consistency, and the triangle inequality on distances.
    /// O(n²) — intended for small topologies.
    pub fn check_invariants(&self) {
        let lazy_estimate = matches!(self.router, Router::Lazy(_));
        for a in self.pes() {
            for n in self.neighbors(a) {
                assert!(self.is_neighbor(n.pe, a), "asymmetric adjacency");
                assert_eq!(self.distance(a, n.pe), 1, "neighbour at distance != 1");
                assert!(
                    self.channel_members(n.channel).contains(&a)
                        && self.channel_members(n.channel).contains(&n.pe),
                    "adjacency channel does not contain both endpoints"
                );
            }
            for b in self.pes() {
                let d = self.distance(a, b);
                if !lazy_estimate {
                    assert!(d <= self.diameter, "distance exceeds diameter");
                }
                assert_eq!(d, self.distance(b, a), "asymmetric distance");
                if a == b {
                    assert_eq!(d, 0);
                } else {
                    let hop = self.next_hop(a, b);
                    assert!(self.is_neighbor(a, hop), "next hop is not a neighbour");
                    assert_eq!(
                        self.distance(hop, b),
                        d - 1,
                        "next hop does not make progress"
                    );
                }
            }
        }
    }
}

/// The arithmetic router families the regular constructors attach.
pub(crate) enum ArithmeticRouter {
    Grid { width: u32, height: u32, wrap: bool },
    Hypercube,
    KAry { k: u32, n: u32 },
}

/// Per-dimension hop distance: plain `|a - b|`, or the ring distance when
/// the dimension wraps. Wrap links only exist on dimensions longer than 2
/// (a width-2 wrap would duplicate the existing link), matching the mesh
/// constructors.
#[inline]
fn dim_distance(a: u32, b: u32, size: u32, wrap: bool) -> u32 {
    let d = a.abs_diff(b);
    if wrap && size > 2 {
        d.min(size - d)
    } else {
        d
    }
}

/// Sum of `dim_distance` over all ordered coordinate pairs of one
/// dimension — the closed-form building block of `mean_distance`.
fn dim_pair_sum(size: u32, wrap: bool) -> u128 {
    let w = size as u128;
    if wrap && size > 2 {
        // Σ over ordered pairs of min(d, w - d) = w * floor(w² / 4).
        w * (w * w / 4)
    } else {
        // Σ over ordered pairs of |i - j| = w (w² - 1) / 3.
        w * (w * w - 1) / 3
    }
}

/// A connected random graph: a ring (guaranteeing connectivity) plus
/// seeded random chords up to roughly the requested `degree`. Ids and the
/// chord set are a pure function of `(n, degree, seed)`.
///
/// # Panics
///
/// Panics if `n < 3` or `degree < 2`.
pub fn random_regular(n: u32, degree: u32, seed: u64) -> Topology {
    assert!(n >= 3, "random graph needs at least 3 PEs");
    assert!(degree >= 2, "random graph needs degree >= 2");
    let mut channels: Vec<Vec<PeId>> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for i in 0..n {
        let j = (i + 1) % n;
        seen.insert((i.min(j), i.max(j)));
        channels.push(vec![PeId(i), PeId(j)]);
    }
    // SplitMix64 — self-contained so the topology crate stays dependency-free.
    let mut state = seed ^ ((n as u64) << 32) ^ degree as u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let chords = (n as u64 * (degree.saturating_sub(2)) as u64) / 2;
    let mut placed = 0u64;
    let mut attempts = 0u64;
    while placed < chords && attempts < chords * 16 {
        attempts += 1;
        let a = (next() % n as u64) as u32;
        let b = (next() % n as u64) as u32;
        if a == b {
            continue;
        }
        if seen.insert((a.min(b), a.max(b))) {
            channels.push(vec![PeId(a), PeId(b)]);
            placed += 1;
        }
    }
    Topology::from_channels(format!("rand {n}x{degree}"), n as usize, channels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A path 0 - 1 - 2 plus a 3-member bus {0, 1, 3}.
    fn tiny() -> Topology {
        Topology::from_channels(
            "tiny",
            4,
            vec![
                vec![PeId(0), PeId(1)],
                vec![PeId(1), PeId(2)],
                vec![PeId(0), PeId(1), PeId(3)],
            ],
        )
    }

    #[test]
    fn adjacency_from_links_and_buses() {
        let t = tiny();
        assert_eq!(t.num_pes(), 4);
        assert_eq!(t.num_channels(), 3);
        let n0: Vec<u32> = t.neighbors(PeId(0)).iter().map(|n| n.pe.0).collect();
        assert_eq!(n0, vec![1, 3]);
        assert!(t.is_neighbor(PeId(1), PeId(3)));
        assert!(!t.is_neighbor(PeId(2), PeId(3)));
    }

    #[test]
    fn lowest_channel_wins_for_shared_pairs() {
        // PEs 0 and 1 share both channel 0 (the link) and channel 2 (the bus).
        let t = tiny();
        assert_eq!(t.channel_between(PeId(0), PeId(1)), Some(ChannelId(0)));
        assert_eq!(t.channel_between(PeId(1), PeId(3)), Some(ChannelId(2)));
        assert_eq!(t.channel_between(PeId(0), PeId(2)), None);
    }

    #[test]
    fn distances_and_diameter() {
        let t = tiny();
        assert_eq!(t.distance(PeId(0), PeId(0)), 0);
        assert_eq!(t.distance(PeId(0), PeId(2)), 2);
        assert_eq!(t.distance(PeId(3), PeId(2)), 2);
        assert_eq!(t.diameter(), 2);
    }

    #[test]
    fn next_hop_routes_along_shortest_paths() {
        let t = tiny();
        assert_eq!(t.next_hop(PeId(3), PeId(2)), PeId(1));
        assert_eq!(t.next_hop(PeId(0), PeId(2)), PeId(1));
        assert_eq!(t.next_hop(PeId(2), PeId(3)), PeId(1));
        assert_eq!(t.next_hop(PeId(1), PeId(1)), PeId(1));
    }

    #[test]
    fn invariants_hold() {
        tiny().check_invariants();
    }

    #[test]
    fn lazy_router_matches_dense_on_arbitrary_graph() {
        let dense = tiny();
        let lazy = tiny().force_lazy_router();
        for a in dense.pes() {
            for b in dense.pes() {
                assert_eq!(dense.distance(a, b), lazy.distance(a, b), "{a}->{b}");
                assert_eq!(dense.next_hop(a, b), lazy.next_hop(a, b), "{a}->{b}");
            }
        }
        lazy.check_invariants();
    }

    /// The lazy router's answer for `(from, to)`: once through the
    /// topology (row cache and promotion in play) and once through a cold
    /// router, so every pair exercises the bidirectional search itself.
    fn lazy_answers(lazy: &Topology, from: PeId, to: PeId) -> [(u32, PeId); 2] {
        let cold = if from == to {
            (0, from)
        } else {
            LazyRouter::new().query(lazy, from, to, true)
        };
        [(lazy.distance(from, to), lazy.next_hop(from, to)), cold]
    }

    #[test]
    fn lazy_router_matches_dense_hop_for_hop() {
        // Degree 2 is the bare ring: long paths, meets on either side and
        // a forward radius of 0 or 1 near the target. The DLM has buses.
        let graphs = [
            random_regular(101, 2, 1),
            random_regular(160, 3, 2),
            random_regular(200, 4, 3),
            random_regular(120, 6, 4),
            crate::dlm::double_lattice_mesh(2, 14, 10),
        ];
        for dense in graphs {
            assert!(matches!(dense.router, Router::Dense { .. }));
            let lazy = dense.clone().force_lazy_router();
            for a in dense.pes() {
                for b in dense.pes() {
                    let want = (dense.distance(a, b), dense.next_hop(a, b));
                    for got in lazy_answers(&lazy, a, b) {
                        assert_eq!(got, want, "{} {a}->{b}", dense.name());
                    }
                }
            }
        }

        // Above the dense limit the router is lazy by construction; check
        // sampled pairs against full BFS rows and the descending-neighbour
        // rule the dense table follows.
        let big = random_regular(DENSE_ROUTER_LIMIT as u32 + 500, 3, 5);
        assert!(matches!(big.router, Router::Lazy(_)));
        let n = big.num_pes() as u32;
        for t in (0..n).step_by(211) {
            let row = big.bfs_row(PeId(t));
            for f in (7..n).step_by(97) {
                let (from, to) = (PeId(f), PeId(t));
                let want = (row[f as usize], hop_from_row(&big, from, &row, from != to));
                for got in lazy_answers(&big, from, to) {
                    assert_eq!(got, want, "{from}->{to}");
                }
            }
        }
    }

    #[test]
    fn mean_distance_of_two_node_graph() {
        let t = Topology::from_channels("pair", 2, vec![vec![PeId(0), PeId(1)]]);
        assert_eq!(t.mean_distance(), 1.0);
        assert_eq!(t.diameter(), 1);
    }

    #[test]
    fn duplicate_members_are_deduped() {
        let t = Topology::from_channels("dup", 2, vec![vec![PeId(0), PeId(1), PeId(1), PeId(0)]]);
        assert_eq!(t.degree(PeId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn disconnected_graph_panics() {
        Topology::from_channels(
            "split",
            4,
            vec![vec![PeId(0), PeId(1)], vec![PeId(2), PeId(3)]],
        );
    }

    #[test]
    #[should_panic(expected = "fewer than two")]
    fn degenerate_channel_panics() {
        Topology::from_channels(
            "loop",
            2,
            vec![vec![PeId(0), PeId(0)], vec![PeId(0), PeId(1)]],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_member_panics() {
        Topology::from_channels("oob", 2, vec![vec![PeId(0), PeId(5)]]);
    }

    #[test]
    fn dot_export_contains_links_and_buses() {
        let t = tiny();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph \"tiny\""));
        assert!(dot.contains("p0 -- p1;"), "{dot}");
        assert!(dot.contains("b2 [shape=box"), "{dot}");
        assert!(dot.contains("b2 -- p3;"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    #[should_panic(expected = "no PEs")]
    fn empty_topology_panics() {
        Topology::from_channels("none", 0, vec![]);
    }

    // ------------------------------------------------------------------
    // Random graphs.
    // ------------------------------------------------------------------

    #[test]
    fn random_graph_is_connected_and_deterministic() {
        let a = random_regular(40, 4, 7);
        let b = random_regular(40, 4, 7);
        a.check_invariants();
        assert_eq!(a.num_channels(), b.num_channels());
        assert_eq!(a.num_pes(), 40);
        // Ring + chords: strictly more channels than the bare ring.
        assert!(a.num_channels() > 40, "{}", a.num_channels());
        for pe in a.pes() {
            assert_eq!(
                a.channel_between(pe, b.neighbors(pe)[0].pe).is_some(),
                b.channel_between(pe, a.neighbors(pe)[0].pe).is_some()
            );
        }
    }
}
