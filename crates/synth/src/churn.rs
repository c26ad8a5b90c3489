//! Deterministic daily edge-churn stream over a verified network.
//!
//! The paper froze one snapshot of the verified graph; the temporal
//! scenario (ROADMAP item 3) evolves it. [`ChurnStream`] layers a seeded
//! process of daily **follows**, **unfollows**, and **new verifications**
//! on top of a starting graph — either a generated
//! [`crate::VerifiedNetwork`] (using its ground-truth fame field) or any
//! [`DiGraph`] (deriving fame from in-degrees), so the crawled English
//! sub-graph a serve shard holds can churn too.
//!
//! Determinism contract: every day's batch is produced by an RNG derived
//! from `(seed, day)` alone — no generator state carries across days — so
//! a stream **resumed from a checkpoint** emits byte-identical batches to
//! one **replayed from day 0**. [`ChurnStream::checkpoint`] serializes the
//! full evolving state (adjacency, roles, fame, dormant queue) into a
//! self-contained binary blob; `tests/tests/temporal_replay.rs` pins the
//! replay-vs-resume golden.
//!
//! Event semantics (order inside a batch is generation order and is part
//! of the contract):
//! * `Verify` — a dormant (isolated) account gets verified: it acquires
//!   fame and starts following (its initial follows are emitted as
//!   ordinary `Follow` events right after the `Verify`).
//! * `Follow` — a new directed edge; sources are active accounts, targets
//!   are fame-weighted, and a configurable fraction mints the reverse
//!   edge too (the paper's reciprocity mechanism, kept alive under churn).
//! * `Unfollow` — an existing edge picked out-degree-proportionally is
//!   removed.
//!
//! A [`ChurnConfig::shock_day`] switches the rates into a second regime
//! (more unfollows, fewer follows) — the structural analogue of the
//! activity regime shifts the paper's PELT detector finds, and the signal
//! `vnet-temporal` feeds back into that same detector.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vnet_graph::{DiGraph, NodeId, StreamingBuilder};
use vnet_stats::sampling::{AliasTable, ContinuousPowerLaw};

use crate::verified_model::{NodeRole, VerifiedNetwork};

/// Knobs of the churn process. All rates are per day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Master seed; day `d`'s RNG is derived from `(seed, d)` alone.
    pub seed: u64,
    /// New follows per day, as a fraction of the current edge count.
    pub follow_rate: f64,
    /// Unfollows per day, as a fraction of the current edge count.
    pub unfollow_rate: f64,
    /// Probability that a new follow mints the reverse edge too.
    pub mutual_fraction: f64,
    /// Dormant (isolated) accounts verified per day.
    pub verifications_per_day: u32,
    /// Follow edges minted by each freshly verified account.
    pub initial_follows: u32,
    /// Day after which the shock regime applies (`None`: single regime).
    pub shock_day: Option<u32>,
    /// Shock regime: unfollow rate is multiplied and follow rate divided
    /// by this factor for every day strictly after `shock_day`.
    pub shock_churn_multiplier: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            seed: 0xC0FFEE,
            follow_rate: 0.008,
            unfollow_rate: 0.004,
            mutual_fraction: 0.203,
            verifications_per_day: 2,
            initial_follows: 5,
            shock_day: None,
            shock_churn_multiplier: 4.0,
        }
    }
}

impl ChurnConfig {
    /// Enable the shock regime after `day`.
    pub fn with_shock(mut self, day: u32, multiplier: f64) -> Self {
        self.shock_day = Some(day);
        self.shock_churn_multiplier = multiplier;
        self
    }
}

/// A node's standing in the churn process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnRole {
    /// Isolated and unverified: can only enter the graph via a `Verify`.
    Dormant,
    /// Active: follows and can be followed.
    Source,
    /// Celebrity sink: followed but never follows (out-degree stays 0).
    Sink,
}

/// One churn event. Events inside a batch apply in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// New directed edge `source → target` (absent before the event).
    Follow {
        /// The follower.
        source: NodeId,
        /// The followee.
        target: NodeId,
    },
    /// Removal of the existing edge `source → target`.
    Unfollow {
        /// The unfollower.
        source: NodeId,
        /// The dropped followee.
        target: NodeId,
    },
    /// A dormant account becomes verified with the given fame weight.
    Verify {
        /// The activated node.
        node: NodeId,
        /// Its freshly assigned fame (future target weight).
        fame: f64,
    },
}

/// One day's worth of churn, in application order.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnBatch {
    /// The day this batch advances the graph to (day 0 is the base).
    pub day: u32,
    /// Events in application order.
    pub events: Vec<ChurnEvent>,
}

impl ChurnBatch {
    /// Follows / unfollows / verifications in this batch.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for e in &self.events {
            match e {
                ChurnEvent::Follow { .. } => t.0 += 1,
                ChurnEvent::Unfollow { .. } => t.1 += 1,
                ChurnEvent::Verify { .. } => t.2 += 1,
            }
        }
        t
    }
}

/// SplitMix64 finalizer: the per-day seed derivation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn day_rng(seed: u64, day: u32) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(day as u64)))
}

/// The stateful churn generator: holds the evolving out-adjacency (its
/// ground truth), roles, fame, and the dormant queue.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnStream {
    config: ChurnConfig,
    day: u32,
    /// Evolving out-adjacency, each list sorted ascending.
    adj: Vec<Vec<NodeId>>,
    roles: Vec<ChurnRole>,
    fame: Vec<f64>,
    /// Dormant node ids, ascending; verifications pop from the front.
    dormant: Vec<NodeId>,
    edges: u64,
    /// Externally scheduled event injections, ascending by day. The sybil
    /// workload plants purchased-follower bursts here so they arrive as
    /// ordinary temporal days ([`ChurnStream::schedule_events`]).
    schedule: Vec<(u32, Vec<ChurnEvent>)>,
}

impl ChurnStream {
    /// Start a stream from a generated network, using its ground-truth
    /// roles and fame field.
    pub fn from_network(net: &VerifiedNetwork, config: ChurnConfig) -> Self {
        let roles = net
            .roles
            .iter()
            .map(|r| match r {
                NodeRole::Isolated => ChurnRole::Dormant,
                NodeRole::CelebritySink => ChurnRole::Sink,
                NodeRole::Active => ChurnRole::Source,
            })
            .collect();
        Self::from_parts(&net.graph, roles, net.fame.clone(), config)
    }

    /// Start a stream from a bare graph (e.g. a crawled sub-graph):
    /// roles and fame are derived from the degrees — isolated nodes are
    /// dormant, zero-out-degree nodes with followers are sinks, and fame
    /// is `in_degree + 1` (followers predict future followers).
    pub fn from_graph(graph: &DiGraph, config: ChurnConfig) -> Self {
        let n = graph.node_count();
        let mut roles = Vec::with_capacity(n);
        let mut fame = Vec::with_capacity(n);
        for u in 0..n as NodeId {
            let (din, dout) = (graph.in_degree(u), graph.out_degree(u));
            if din == 0 && dout == 0 {
                roles.push(ChurnRole::Dormant);
                fame.push(0.0);
            } else if dout == 0 {
                roles.push(ChurnRole::Sink);
                fame.push(din as f64 + 1.0);
            } else {
                roles.push(ChurnRole::Source);
                fame.push(din as f64 + 1.0);
            }
        }
        Self::from_parts(graph, roles, fame, config)
    }

    fn from_parts(
        graph: &DiGraph,
        roles: Vec<ChurnRole>,
        fame: Vec<f64>,
        config: ChurnConfig,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(roles.len(), n, "roles misaligned with graph");
        assert_eq!(fame.len(), n, "fame misaligned with graph");
        let adj: Vec<Vec<NodeId>> =
            (0..n as NodeId).map(|u| graph.out_neighbors(u).to_vec()).collect();
        let dormant: Vec<NodeId> = roles
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == ChurnRole::Dormant)
            .map(|(i, _)| i as NodeId)
            .collect();
        Self {
            config,
            day: 0,
            adj,
            roles,
            fame,
            dormant,
            edges: graph.edge_count() as u64,
            schedule: Vec::new(),
        }
    }

    /// The day the stream's state corresponds to (0 = the base graph).
    pub fn day(&self) -> u32 {
        self.day
    }

    /// Directed edges in the current state.
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// Nodes still waiting to be verified.
    pub fn dormant_count(&self) -> usize {
        self.dormant.len()
    }

    /// The stream's configuration.
    pub fn config(&self) -> &ChurnConfig {
        self.config_ref()
    }

    /// Queue externally planted events for delivery on `day` (appended
    /// after that day's organic churn, in the order given). Events that no
    /// longer apply when the day arrives — a follow of an existing edge,
    /// an unfollow of an absent one, a verify of a non-dormant node — are
    /// skipped deterministically rather than emitted. Days already in the
    /// past fire on the next generated day.
    ///
    /// Scheduled days are part of the replay contract: they serialize into
    /// [`ChurnStream::checkpoint`] (as a v2 blob; schedule-free streams
    /// keep emitting byte-stable v1 blobs).
    pub fn schedule_events(&mut self, day: u32, events: Vec<ChurnEvent>) {
        if events.is_empty() {
            return;
        }
        match self.schedule.iter_mut().find(|(d, _)| *d == day) {
            Some((_, existing)) => existing.extend(events),
            None => {
                let pos = self.schedule.partition_point(|&(d, _)| d < day);
                self.schedule.insert(pos, (day, events));
            }
        }
    }

    /// Days with scheduled events still waiting to fire.
    pub fn scheduled_days(&self) -> Vec<u32> {
        self.schedule.iter().map(|&(d, _)| d).collect()
    }

    fn config_ref(&self) -> &ChurnConfig {
        &self.config
    }

    fn has(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// Insert `u → v` into the ground-truth adjacency. Returns `false`
    /// (and changes nothing) when the edge already exists or is a loop.
    fn insert(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.adj[u as usize].insert(pos, v);
                self.edges += 1;
                true
            }
        }
    }

    fn remove(&mut self, u: NodeId, v: NodeId) -> bool {
        match self.adj[u as usize].binary_search(&v) {
            Ok(pos) => {
                self.adj[u as usize].remove(pos);
                self.edges -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// The per-day (follow, unfollow) rates, after any shock.
    fn rates(&self, day: u32) -> (f64, f64) {
        let c = &self.config;
        match c.shock_day {
            Some(shock) if day > shock => (
                c.follow_rate / c.shock_churn_multiplier,
                c.unfollow_rate * c.shock_churn_multiplier,
            ),
            _ => (c.follow_rate, c.unfollow_rate),
        }
    }

    /// Generate and apply the next day's batch.
    ///
    /// The batch is a pure function of `(seed, day)` and the current
    /// state; because the state itself is a pure function of the seed and
    /// the start graph, the whole trajectory is replayable.
    pub fn next_day(&mut self) -> ChurnBatch {
        self.day += 1;
        let day = self.day;
        let mut rng = day_rng(self.config.seed, day);
        let mut events = Vec::new();
        let (follow_rate, unfollow_rate) = self.rates(day);

        // Day-start sampling tables. Nodes verified *today* join the
        // followable table tomorrow; follow sources are today's actives.
        let followable: Vec<NodeId> = (0..self.adj.len() as NodeId)
            .filter(|&v| self.fame[v as usize] > 0.0)
            .collect();
        let weights: Vec<f64> = followable.iter().map(|&v| self.fame[v as usize]).collect();
        let alias = AliasTable::new(&weights);
        let sources: Vec<NodeId> = (0..self.adj.len() as NodeId)
            .filter(|&v| self.roles[v as usize] == ChurnRole::Source)
            .collect();
        let mean_fame = if followable.is_empty() {
            1.0
        } else {
            weights.iter().sum::<f64>() / weights.len() as f64
        };
        // Out-degree prefix sums for edge-uniform unfollow sources.
        let mut cum: Vec<u64> = Vec::with_capacity(self.adj.len() + 1);
        cum.push(0);
        for list in &self.adj {
            cum.push(cum.last().unwrap() + list.len() as u64);
        }
        let total_edges_start = *cum.last().unwrap();

        // --- Verifications -------------------------------------------
        let fame_sampler = ContinuousPowerLaw::new(2.35, 1.0);
        let k = (self.config.verifications_per_day as usize).min(self.dormant.len());
        for _ in 0..k {
            let node = self.dormant.remove(0);
            let fame = mean_fame * fame_sampler.sample(&mut rng);
            self.roles[node as usize] = ChurnRole::Source;
            self.fame[node as usize] = fame;
            events.push(ChurnEvent::Verify { node, fame });
            for _ in 0..self.config.initial_follows {
                if followable.is_empty() {
                    break;
                }
                for _ in 0..12 {
                    let v = followable[alias.sample(&mut rng)];
                    if v != node && !self.has(node, v) {
                        self.insert(node, v);
                        events.push(ChurnEvent::Follow { source: node, target: v });
                        break;
                    }
                }
            }
        }

        // --- Follows -------------------------------------------------
        let n_follows = (follow_rate * self.edges as f64).round() as usize;
        if !sources.is_empty() && !followable.is_empty() {
            for _ in 0..n_follows {
                let u = sources[rng.random_range(0..sources.len())];
                for _ in 0..12 {
                    let v = followable[alias.sample(&mut rng)];
                    if v == u || self.has(u, v) {
                        continue;
                    }
                    self.insert(u, v);
                    events.push(ChurnEvent::Follow { source: u, target: v });
                    // Maybe mint the reverse edge (reciprocity under
                    // churn); sinks never follow back.
                    if rng.random::<f64>() < self.config.mutual_fraction
                        && self.roles[v as usize] == ChurnRole::Source
                        && !self.has(v, u)
                    {
                        self.insert(v, u);
                        events.push(ChurnEvent::Follow { source: v, target: u });
                    }
                    break;
                }
            }
        }

        // --- Unfollows -----------------------------------------------
        // Source picked edge-uniformly over the day-start degree profile
        // (a heavy follower sheds more edges), target uniform within the
        // source's *current* list.
        let n_unfollows = (unfollow_rate * self.edges as f64).round() as usize;
        if total_edges_start > 0 {
            for _ in 0..n_unfollows {
                for _ in 0..12 {
                    let r = rng.random_range(0..total_edges_start);
                    let u = match cum.binary_search(&r) {
                        // `cum[i] <= r < cum[i+1]` selects node i; an exact
                        // hit on cum[i] lands in node i's range too.
                        Ok(i) => {
                            // Skip over zero-degree runs (equal prefix values).
                            let mut i = i;
                            while cum[i + 1] == cum[i] {
                                i += 1;
                            }
                            i
                        }
                        Err(i) => i - 1,
                    } as NodeId;
                    if self.adj[u as usize].is_empty() {
                        continue; // day-start degrees drifted; resample
                    }
                    let idx = rng.random_range(0..self.adj[u as usize].len());
                    let v = self.adj[u as usize][idx];
                    self.remove(u, v);
                    events.push(ChurnEvent::Unfollow { source: u, target: v });
                    break;
                }
            }
        }

        // --- Scheduled injections ------------------------------------
        // Planted events (sybil bursts) land after the organic churn, in
        // scheduling order; entries whose day has passed fire now.
        while let Some(&(d, _)) = self.schedule.first() {
            if d > day {
                break;
            }
            let (_, planted) = self.schedule.remove(0);
            for event in planted {
                match event {
                    ChurnEvent::Follow { source, target } => {
                        if self.insert(source, target) {
                            events.push(event);
                        }
                    }
                    ChurnEvent::Unfollow { source, target } => {
                        if self.remove(source, target) {
                            events.push(event);
                        }
                    }
                    ChurnEvent::Verify { node, fame } => {
                        if self.roles[node as usize] == ChurnRole::Dormant && fame > 0.0 {
                            if let Ok(pos) = self.dormant.binary_search(&node) {
                                self.dormant.remove(pos);
                            }
                            self.roles[node as usize] = ChurnRole::Source;
                            self.fame[node as usize] = fame;
                            events.push(event);
                        }
                    }
                }
            }
        }

        ChurnBatch { day, events }
    }

    /// Freeze the current adjacency into a CSR graph through the
    /// streaming two-pass builder — the ground-truth day-`d` snapshot the
    /// replay goldens and the from-scratch comparators are built on.
    pub fn snapshot_graph(&self) -> DiGraph {
        let n = self.adj.len() as u32;
        let mut b = StreamingBuilder::new(n);
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                b.count(u as NodeId, v).expect("churn ids are in range");
            }
        }
        b.seal_degrees().expect("first seal");
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                b.place(u as NodeId, v).expect("pass 2 replays pass 1");
            }
        }
        let (graph, _) = b.finish().expect("pass 2 replayed pass 1 exactly");
        graph
    }

    /// Serialize the complete stream state into a self-contained binary
    /// checkpoint. Resuming from it continues the exact trajectory a
    /// replay from day 0 would take ([`ChurnStream::resume`]).
    pub fn checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"VNCK");
        // Schedule-free streams keep the byte-stable v1 layout; a pending
        // schedule appends a trailing section under version 2.
        let version: u32 = if self.schedule.is_empty() { 1 } else { 2 };
        out.extend_from_slice(&version.to_le_bytes());
        let c = &self.config;
        out.extend_from_slice(&c.seed.to_le_bytes());
        out.extend_from_slice(&c.follow_rate.to_bits().to_le_bytes());
        out.extend_from_slice(&c.unfollow_rate.to_bits().to_le_bytes());
        out.extend_from_slice(&c.mutual_fraction.to_bits().to_le_bytes());
        out.extend_from_slice(&c.verifications_per_day.to_le_bytes());
        out.extend_from_slice(&c.initial_follows.to_le_bytes());
        out.extend_from_slice(&c.shock_day.map_or(u32::MAX, |d| d).to_le_bytes());
        out.extend_from_slice(&c.shock_churn_multiplier.to_bits().to_le_bytes());
        out.extend_from_slice(&self.day.to_le_bytes());
        out.extend_from_slice(&(self.adj.len() as u32).to_le_bytes());
        for (i, list) in self.adj.iter().enumerate() {
            out.push(match self.roles[i] {
                ChurnRole::Dormant => 0,
                ChurnRole::Source => 1,
                ChurnRole::Sink => 2,
            });
            out.extend_from_slice(&self.fame[i].to_bits().to_le_bytes());
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &v in list {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.dormant.len() as u32).to_le_bytes());
        for &v in &self.dormant {
            out.extend_from_slice(&v.to_le_bytes());
        }
        if version >= 2 {
            out.extend_from_slice(&(self.schedule.len() as u32).to_le_bytes());
            for (day, events) in &self.schedule {
                out.extend_from_slice(&day.to_le_bytes());
                out.extend_from_slice(&(events.len() as u32).to_le_bytes());
                for event in events {
                    match *event {
                        ChurnEvent::Follow { source, target } => {
                            out.push(0);
                            out.extend_from_slice(&source.to_le_bytes());
                            out.extend_from_slice(&target.to_le_bytes());
                        }
                        ChurnEvent::Unfollow { source, target } => {
                            out.push(1);
                            out.extend_from_slice(&source.to_le_bytes());
                            out.extend_from_slice(&target.to_le_bytes());
                        }
                        ChurnEvent::Verify { node, fame } => {
                            out.push(2);
                            out.extend_from_slice(&node.to_le_bytes());
                            out.extend_from_slice(&fame.to_bits().to_le_bytes());
                        }
                    }
                }
            }
        }
        out
    }

    /// Rebuild a stream from [`ChurnStream::checkpoint`] bytes.
    pub fn resume(bytes: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader { bytes, pos: 0 };
        if r.take(4)? != b"VNCK" {
            return Err("not a churn checkpoint (bad magic)".into());
        }
        let version = r.u32()?;
        if version != 1 && version != 2 {
            return Err(format!("unsupported churn checkpoint version {version}"));
        }
        let config = ChurnConfig {
            seed: r.u64()?,
            follow_rate: f64::from_bits(r.u64()?),
            unfollow_rate: f64::from_bits(r.u64()?),
            mutual_fraction: f64::from_bits(r.u64()?),
            verifications_per_day: r.u32()?,
            initial_follows: r.u32()?,
            shock_day: match r.u32()? {
                u32::MAX => None,
                d => Some(d),
            },
            shock_churn_multiplier: f64::from_bits(r.u64()?),
        };
        let day = r.u32()?;
        // Per node: role byte, fame, and list length.
        let n = r.count(13)?;
        let mut adj = Vec::with_capacity(n);
        let mut roles = Vec::with_capacity(n);
        let mut fame = Vec::with_capacity(n);
        let mut edges = 0u64;
        for _ in 0..n {
            roles.push(match r.u8()? {
                0 => ChurnRole::Dormant,
                1 => ChurnRole::Source,
                2 => ChurnRole::Sink,
                other => return Err(format!("bad role byte {other}")),
            });
            fame.push(f64::from_bits(r.u64()?));
            let len = r.count(4)?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                let v = r.u32()?;
                if v as usize >= n {
                    return Err(format!("target {v} out of range (n={n})"));
                }
                list.push(v);
            }
            edges += len as u64;
            adj.push(list);
        }
        let n_dormant = r.count(4)?;
        let mut dormant = Vec::with_capacity(n_dormant);
        for _ in 0..n_dormant {
            dormant.push(r.u32()?);
        }
        let mut schedule = Vec::new();
        if version >= 2 {
            let n_days = r.u32()? as usize;
            for _ in 0..n_days {
                let sched_day = r.u32()?;
                // The shortest event is a tag byte plus two ids.
                let n_events = r.count(9)?;
                let mut events = Vec::with_capacity(n_events);
                for _ in 0..n_events {
                    events.push(match r.u8()? {
                        0 => ChurnEvent::Follow { source: r.u32()?, target: r.u32()? },
                        1 => ChurnEvent::Unfollow { source: r.u32()?, target: r.u32()? },
                        2 => ChurnEvent::Verify {
                            node: r.u32()?,
                            fame: f64::from_bits(r.u64()?),
                        },
                        other => return Err(format!("bad scheduled event tag {other}")),
                    });
                }
                schedule.push((sched_day, events));
            }
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after churn checkpoint".into());
        }
        Ok(Self { config, day, adj, roles, fame, dormant, edges, schedule })
    }
}

struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteReader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        if self.pos + len > self.bytes.len() {
            return Err("truncated churn checkpoint".into());
        }
        let s = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A `u32` element count, refused when that many elements of at least
    /// `min_bytes` each cannot fit in the bytes left — so no allocation is
    /// ever sized from a count the blob cannot back.
    fn count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_bytes) > self.bytes.len() - self.pos {
            return Err("truncated churn checkpoint".into());
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifiedNetConfig;
    use std::collections::BTreeSet;

    fn small_stream(seed: u64) -> ChurnStream {
        let mut rng = StdRng::seed_from_u64(17);
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        ChurnStream::from_network(&net, ChurnConfig { seed, ..ChurnConfig::default() })
    }

    #[test]
    fn batches_are_deterministic() {
        let mut a = small_stream(9);
        let mut b = small_stream(9);
        for _ in 0..5 {
            assert_eq!(a.next_day(), b.next_day());
        }
        assert_eq!(a.snapshot_graph(), b.snapshot_graph());
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = small_stream(1);
        let mut b = small_stream(2);
        assert_ne!(a.next_day(), b.next_day());
    }

    #[test]
    fn events_are_consistent_with_a_mirror() {
        // Follow edges must be absent before the event, unfollows present.
        let mut s = small_stream(3);
        let mut mirror: BTreeSet<(NodeId, NodeId)> =
            s.snapshot_graph().edges().collect();
        for _ in 0..4 {
            let batch = s.next_day();
            for e in &batch.events {
                match *e {
                    ChurnEvent::Follow { source, target } => {
                        assert!(mirror.insert((source, target)), "duplicate follow {e:?}");
                    }
                    ChurnEvent::Unfollow { source, target } => {
                        assert!(mirror.remove(&(source, target)), "phantom unfollow {e:?}");
                    }
                    ChurnEvent::Verify { node, fame } => {
                        assert!(fame > 0.0, "verified node {node} got no fame");
                    }
                }
            }
        }
        let end: BTreeSet<(NodeId, NodeId)> = s.snapshot_graph().edges().collect();
        assert_eq!(mirror, end, "event log does not reproduce the state");
        assert_eq!(end.len() as u64, s.edge_count());
    }

    #[test]
    fn verifications_drain_the_dormant_queue() {
        let mut s = small_stream(4);
        let before = s.dormant_count();
        let batch = s.next_day();
        let (_, _, verified) = batch.tally();
        assert_eq!(verified, 2);
        assert_eq!(s.dormant_count(), before - 2);
        // The verify events precede the new account's first follows.
        let first_verify =
            batch.events.iter().position(|e| matches!(e, ChurnEvent::Verify { .. }));
        assert!(first_verify.is_some());
    }

    #[test]
    fn shock_regime_sheds_edges() {
        let calm_cfg = ChurnConfig { seed: 5, ..ChurnConfig::default() };
        let shock_cfg = calm_cfg.with_shock(2, 6.0);
        let mut rng = StdRng::seed_from_u64(17);
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        let mut calm = ChurnStream::from_network(&net, calm_cfg);
        let mut shocked = ChurnStream::from_network(&net, shock_cfg);
        for _ in 0..8 {
            calm.next_day();
            shocked.next_day();
        }
        assert!(
            shocked.edge_count() < calm.edge_count(),
            "shock ({}) should shed edges vs calm ({})",
            shocked.edge_count(),
            calm.edge_count()
        );
    }

    #[test]
    fn resume_continues_the_exact_trajectory() {
        let mut replayed = small_stream(6);
        let mut checkpointed = small_stream(6);
        for _ in 0..3 {
            replayed.next_day();
            checkpointed.next_day();
        }
        let blob = checkpointed.checkpoint();
        let mut resumed = ChurnStream::resume(&blob).expect("checkpoint round-trips");
        assert_eq!(resumed.day(), 3);
        for _ in 0..4 {
            assert_eq!(replayed.next_day(), resumed.next_day());
        }
        assert_eq!(replayed.snapshot_graph(), resumed.snapshot_graph());
    }

    #[test]
    fn resume_exactly_on_the_shock_day_replays_the_shock_once() {
        // Regression: a checkpoint taken exactly on the `with_shock` day
        // must resume into the shock regime exactly once — the first
        // resumed day is already post-shock (rates flip for day > shock),
        // and no day is generated under the wrong regime. Pinned as byte
        // equality of every subsequent batch AND of the serialized end
        // state against the uninterrupted stream.
        let shock_day = 3u32;
        let cfg = ChurnConfig { seed: 11, ..ChurnConfig::default() }.with_shock(shock_day, 6.0);
        let mut rng = StdRng::seed_from_u64(17);
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        let mut uninterrupted = ChurnStream::from_network(&net, cfg);
        let mut checkpointed = ChurnStream::from_network(&net, cfg);
        for _ in 0..shock_day {
            uninterrupted.next_day();
            checkpointed.next_day();
        }
        assert_eq!(checkpointed.day(), shock_day, "checkpoint lands exactly on the shock day");
        let blob = checkpointed.checkpoint();
        let mut resumed = ChurnStream::resume(&blob).expect("shock-day checkpoint round-trips");
        assert_eq!(resumed.day(), shock_day);
        for d in 1..=4 {
            let a = uninterrupted.next_day();
            let b = resumed.next_day();
            assert_eq!(a, b, "batch divergence {d} days after the shock-day checkpoint");
        }
        assert_eq!(
            uninterrupted.checkpoint(),
            resumed.checkpoint(),
            "end state must be byte-identical to the uninterrupted stream"
        );
        // The shock really did engage on the resumed side: its first
        // resumed day ran the post-shock regime, not the calm one.
        let calm = ChurnConfig { seed: 11, ..ChurnConfig::default() };
        let mut calm_fork =
            ChurnStream::resume(&blob).map(|mut s| {
                s.config = calm;
                s
            }).expect("round-trip");
        let shocked_fork = ChurnStream::resume(&blob).expect("round-trip");
        let mut shocked_fork = shocked_fork;
        assert_ne!(
            calm_fork.next_day(),
            shocked_fork.next_day(),
            "day shock+1 must be generated under the shock regime"
        );
    }

    #[test]
    fn checkpoint_rejects_garbage() {
        assert!(ChurnStream::resume(b"nope").is_err());
        let mut blob = small_stream(7).checkpoint();
        blob.truncate(blob.len() - 1);
        assert!(ChurnStream::resume(&blob).is_err());
    }

    #[test]
    fn node_count_past_the_blob_is_truncation_not_allocation() {
        // A v1 header (68 bytes) whose node count is u32::MAX: the
        // adjacency, role and fame vectors would have needed ~103 GB.
        let mut blob = small_stream(7).checkpoint();
        assert_eq!(&blob[4..8], &1u32.to_le_bytes());
        blob.truncate(68);
        blob[64..68].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ChurnStream::resume(&blob).err(), Some("truncated churn checkpoint".into()));
    }

    #[test]
    fn scheduled_events_fire_once_and_survive_checkpoints() {
        let mut a = small_stream(13);
        let mut b = small_stream(13);
        // A planted burst: node 0 gains three followers on day 2, from
        // sources verified to not already follow it.
        let start = a.snapshot_graph();
        let sources: Vec<NodeId> = (4..start.node_count() as NodeId)
            .filter(|&u| !start.has_edge(u, 0))
            .take(3)
            .collect();
        assert_eq!(sources.len(), 3);
        let burst: Vec<ChurnEvent> = sources
            .iter()
            .map(|&source| ChurnEvent::Follow { source, target: 0 })
            .collect();
        a.schedule_events(2, burst.clone());
        b.schedule_events(2, burst);
        assert_eq!(a.scheduled_days(), vec![2]);

        let day1 = a.next_day();
        assert_eq!(day1, b.next_day());
        // Checkpoint while the schedule is still pending: v2 blob, exact
        // resume (including the pending burst).
        let blob = a.checkpoint();
        assert_eq!(u32::from_le_bytes(blob[4..8].try_into().unwrap()), 2);
        let mut resumed = ChurnStream::resume(&blob).expect("v2 round-trip");
        assert_eq!(resumed.scheduled_days(), vec![2]);

        let day2 = b.next_day();
        assert_eq!(resumed.next_day(), day2);
        // The burst fired exactly once, after the organic events.
        let planted = day2
            .events
            .iter()
            .filter(|e| {
                matches!(e, ChurnEvent::Follow { target: 0, source } if sources.contains(source))
            })
            .count();
        assert_eq!(planted, 3, "all three planted follows fire on day 2");
        assert!(resumed.scheduled_days().is_empty());
        // Post-schedule checkpoints drop back to the byte-stable v1 layout.
        let after = resumed.checkpoint();
        assert_eq!(u32::from_le_bytes(after[4..8].try_into().unwrap()), 1);
        assert_eq!(after, b.checkpoint());
        // A duplicate of an existing edge is skipped, not emitted.
        let mut c = b.clone();
        let dup = ChurnEvent::Follow { source: sources[0], target: 0 };
        c.schedule_events(3, vec![dup]);
        let day3 = c.next_day();
        let dup_count = day3.events.iter().filter(|&&e| e == dup).count();
        assert_eq!(dup_count, 0, "planted duplicate of a live edge must be skipped");
    }

    #[test]
    fn from_graph_derives_roles() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
        let s = ChurnStream::from_graph(&net.graph, ChurnConfig::default());
        // Degree-derived dormant set == the graph's isolated set.
        assert_eq!(s.dormant_count(), net.graph.isolated_nodes().len());
        let mut t = s;
        let mut u = ChurnStream::from_graph(&net.graph, ChurnConfig::default());
        assert_eq!(t.next_day(), u.next_day());
    }
}
