//! Adversarial sybil workload: planted fake-follower rings and
//! purchased-follower bursts (ROADMAP item 4).
//!
//! Two attack shapes from the fake-account literature are injected into a
//! generated (or crawled) verified network, with serialized ground truth
//! so detection quality is measurable:
//!
//! * **Fake-follower rings** — a clique of sybil accounts that all follow
//!   each other (mutual "validation" edges) and collectively follow a
//!   small set of *customer* accounts to inflate their follower counts.
//!   Rings are present from day 0: follower farms pre-date their
//!   customers. Their structural tells are exactly the instruments the
//!   paper builds: a spike in the degree distribution at the ring degree
//!   (the power-law deviation signal of Rastogi's estimator) and
//!   reciprocity ≈ 1 against partners nobody else follows (the inverse of
//!   Saito & Masuda's well-followed mutual hubs).
//! * **Purchased-follower bursts** — dormant sybil accounts that activate
//!   on a *campaign day* and follow their customer en masse, plus a few
//!   camouflage follows of celebrities. Bursts compose with
//!   [`ChurnStream`] via [`ChurnStream::schedule_events`], so a campaign
//!   arrives as an ordinary temporal day and is visible to the PELT
//!   change-point machinery as a follow-rate shock.
//!
//! Everything is a pure function of [`SybilConfig::seed`] and the base
//! graph; the planted labeling serializes to a self-contained blob
//! ([`PlantedLabels::serialize`]) that rides along with checkpoints and
//! serve shards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vnet_graph::{DiGraph, NodeId, StreamingBuilder};
use vnet_stats::sampling::AliasTable;

use crate::churn::{ChurnEvent, ChurnStream};

/// Knobs of the sybil injection. Defaults are the *calibrated* workload:
/// the detection battery's recall floor (≥ 0.9 over all planted accounts)
/// is asserted at exactly these values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilConfig {
    /// Master seed for every placement decision.
    pub seed: u64,
    /// Number of fake-follower rings.
    pub rings: u32,
    /// Accounts per ring (each ring is a mutual clique).
    pub ring_size: u32,
    /// Customer accounts boosted by every ring member.
    pub customers_per_ring: u32,
    /// Purchased-follower campaigns.
    pub bursts: u32,
    /// Sybil accounts activated per campaign.
    pub burst_size: u32,
    /// Camouflage follows (of celebrities) per burst account.
    pub camouflage_follows: u32,
    /// Churn day the first campaign lands on.
    pub burst_day: u32,
    /// Days between consecutive campaign starts.
    pub burst_stride: u32,
    /// Consecutive days each campaign is spread over (purchased followers
    /// are drip-delivered; a multi-day elevated segment is also what the
    /// PELT change-point detector can isolate).
    pub burst_span: u32,
}

impl Default for SybilConfig {
    fn default() -> Self {
        Self {
            seed: 0x5B11,
            rings: 4,
            ring_size: 80,
            customers_per_ring: 3,
            bursts: 3,
            burst_size: 60,
            camouflage_follows: 7,
            burst_day: 4,
            burst_stride: 4,
            burst_span: 3,
        }
    }
}

impl SybilConfig {
    /// Total fake accounts this configuration plants.
    pub fn planted_count(&self) -> usize {
        (self.rings * self.ring_size + self.bursts * self.burst_size) as usize
    }
}

/// The serialized ground truth: which node ids are fake, and in which
/// role. All lists are ascending and disjoint (customers are *real*
/// accounts that bought followers — labeled, but not sybils).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedLabels {
    /// Ring-member sybil accounts.
    pub ring_members: Vec<NodeId>,
    /// Burst (purchased-follower) sybil accounts.
    pub burst_accounts: Vec<NodeId>,
    /// Real accounts that bought boosting (ring or burst customers).
    pub customers: Vec<NodeId>,
}

impl PlantedLabels {
    /// All planted fake accounts, ascending — the positive class the
    /// detection pipeline is scored against.
    pub fn sybils(&self) -> Vec<NodeId> {
        let mut all: Vec<NodeId> =
            self.ring_members.iter().chain(&self.burst_accounts).copied().collect();
        all.sort_unstable();
        all
    }

    /// Is `node` a planted fake account?
    pub fn is_sybil(&self, node: NodeId) -> bool {
        self.ring_members.binary_search(&node).is_ok()
            || self.burst_accounts.binary_search(&node).is_ok()
    }

    /// Serialize into a self-contained `VNSY` v1 blob.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"VNSY");
        out.extend_from_slice(&1u32.to_le_bytes());
        for list in [&self.ring_members, &self.burst_accounts, &self.customers] {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for &v in list.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Rebuild from [`PlantedLabels::serialize`] bytes.
    pub fn deserialize(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 8 || &bytes[..4] != b"VNSY" {
            return Err("not a planted-label blob (bad magic)".into());
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().map_err(|_| "short header")?);
        if version != 1 {
            return Err(format!("unsupported planted-label version {version}"));
        }
        let mut pos = 8usize;
        let mut read_list = || -> Result<Vec<NodeId>, String> {
            if pos + 4 > bytes.len() {
                return Err("truncated planted-label blob".into());
            }
            let len =
                u32::from_le_bytes(bytes[pos..pos + 4].try_into().map_err(|_| "short len")?)
                    as usize;
            pos += 4;
            // Size nothing from a length the remaining bytes cannot hold.
            if len > (bytes.len() - pos) / 4 {
                return Err("truncated planted-label blob".into());
            }
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                if pos + 4 > bytes.len() {
                    return Err("truncated planted-label blob".into());
                }
                list.push(u32::from_le_bytes(
                    bytes[pos..pos + 4].try_into().map_err(|_| "short id")?,
                ));
                pos += 4;
            }
            Ok(list)
        };
        let ring_members = read_list()?;
        let burst_accounts = read_list()?;
        let customers = read_list()?;
        if pos != bytes.len() {
            return Err("trailing bytes after planted-label blob".into());
        }
        Ok(Self { ring_members, burst_accounts, customers })
    }
}

/// The injected workload: the day-0 graph (rings live, burst accounts
/// registered but dormant), the ground truth, and the campaign schedule.
#[derive(Debug, Clone)]
pub struct SybilWorkload {
    /// Base graph + ring accounts (edges live) + burst accounts (isolated
    /// until their campaign day).
    pub graph: DiGraph,
    /// Planted ground truth.
    pub labels: PlantedLabels,
    /// Campaign days: `(day, events)` ready for
    /// [`ChurnStream::schedule_events`].
    pub schedule: Vec<(u32, Vec<ChurnEvent>)>,
}

impl SybilWorkload {
    /// Queue every campaign onto a churn stream over
    /// [`SybilWorkload::graph`].
    pub fn attach(&self, stream: &mut ChurnStream) {
        for (day, events) in &self.schedule {
            stream.schedule_events(*day, events.clone());
        }
    }

    /// The static end-state view: [`SybilWorkload::graph`] with every
    /// scheduled campaign follow already applied — what the graph looks
    /// like after the last burst day, without running churn.
    pub fn final_graph(&self) -> DiGraph {
        let mut extra: Vec<(NodeId, NodeId)> = Vec::new();
        for (_, events) in &self.schedule {
            for event in events {
                if let ChurnEvent::Follow { source, target } = *event {
                    extra.push((source, target));
                }
            }
        }
        rebuild_with(&self.graph, &extra)
    }
}

/// Rebuild `base` with `extra` edges appended (duplicates ignored), same
/// node universe.
fn rebuild_with(base: &DiGraph, extra: &[(NodeId, NodeId)]) -> DiGraph {
    let n = base.node_count() as u32;
    let mut fresh: Vec<(NodeId, NodeId)> = extra
        .iter()
        .copied()
        .filter(|&(u, v)| u != v && !base.has_edge(u, v))
        .collect();
    fresh.sort_unstable();
    fresh.dedup();
    let mut b = StreamingBuilder::new(n);
    let pass = |b: &mut StreamingBuilder, place: bool| {
        for u in 0..n {
            for &v in base.out_neighbors(u) {
                if place {
                    b.place(u, v).expect("pass 2 replays pass 1");
                } else {
                    b.count(u, v).expect("base ids in range");
                }
            }
        }
        for &(u, v) in &fresh {
            if place {
                b.place(u, v).expect("pass 2 replays pass 1");
            } else {
                b.count(u, v).expect("extra ids in range");
            }
        }
    };
    pass(&mut b, false);
    b.seal_degrees().expect("first seal");
    pass(&mut b, true);
    let (graph, _) = b.finish().expect("pass 2 replayed pass 1 exactly");
    graph
}

/// Pick `k` distinct *customer* accounts: real nodes in the middle of the
/// popularity distribution (wannabes buy followers; top celebrities and
/// nobodies don't), excluding anything already in `taken`.
fn pick_customers(
    base: &DiGraph,
    k: usize,
    taken: &mut Vec<NodeId>,
    rng: &mut StdRng,
) -> Vec<NodeId> {
    let n = base.node_count() as NodeId;
    let mut by_popularity: Vec<NodeId> = (0..n).filter(|&u| base.in_degree(u) > 0).collect();
    by_popularity.sort_by_key(|&u| (base.in_degree(u), u));
    // The middle band: 50th..90th percentile of followed accounts.
    let lo = by_popularity.len() / 2;
    let hi = by_popularity.len() * 9 / 10;
    let band = &by_popularity[lo..hi.max(lo + 1).min(by_popularity.len())];
    let mut picked = Vec::with_capacity(k);
    let mut guard = 0;
    while picked.len() < k && guard < 64 * (k + 1) {
        guard += 1;
        if band.is_empty() {
            break;
        }
        let c = band[rng.random_range(0..band.len())];
        if !taken.contains(&c) {
            taken.push(c);
            picked.push(c);
        }
    }
    picked
}

/// Inject the sybil workload into `base`. Deterministic in
/// `(cfg.seed, base)`: same inputs → identical graph, labels, schedule.
pub fn inject_sybil(base: &DiGraph, cfg: &SybilConfig) -> SybilWorkload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n_base = base.node_count() as NodeId;
    let mut taken: Vec<NodeId> = Vec::new();

    // Celebrity alias table for camouflage follows (in-degree weighted —
    // fame is what camouflage imitates).
    let weights: Vec<f64> = (0..n_base).map(|u| base.in_degree(u) as f64).collect();
    let any_followed = weights.iter().any(|&w| w > 0.0);
    let celeb_alias = if any_followed { Some(AliasTable::new(&weights)) } else { None };

    // --- Rings: live from day 0 ----------------------------------------
    let mut next_id = n_base;
    let mut ring_members = Vec::new();
    let mut ring_edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut customers = Vec::new();
    for _ in 0..cfg.rings {
        let members: Vec<NodeId> = (0..cfg.ring_size).map(|i| next_id + i).collect();
        next_id += cfg.ring_size;
        let ring_customers =
            pick_customers(base, cfg.customers_per_ring as usize, &mut taken, &mut rng);
        for &m in &members {
            for &other in &members {
                if other != m {
                    ring_edges.push((m, other));
                }
            }
            for &c in &ring_customers {
                ring_edges.push((m, c));
            }
        }
        ring_members.extend(members);
        customers.extend(ring_customers);
    }

    // --- Bursts: registered now, active on their campaign day ----------
    let mut burst_accounts = Vec::new();
    let mut schedule: Vec<(u32, Vec<ChurnEvent>)> = Vec::new();
    let span = cfg.burst_span.max(1);
    for b in 0..cfg.bursts {
        let start_day = cfg.burst_day + b * cfg.burst_stride;
        let customer = pick_customers(base, 1, &mut taken, &mut rng);
        let accounts: Vec<NodeId> = (0..cfg.burst_size).map(|i| next_id + i).collect();
        next_id += cfg.burst_size;
        // Drip-delivered: account `i` of the campaign acts on day
        // `start_day + i·span/size`, spreading the spike over `span` days.
        let mut per_day: Vec<Vec<ChurnEvent>> = vec![Vec::new(); span as usize];
        for (i, &a) in accounts.iter().enumerate() {
            let offset = (i as u32 * span / cfg.burst_size.max(1)).min(span - 1) as usize;
            let events = &mut per_day[offset];
            // Activation fame is nominal: purchased accounts are nobodies.
            events.push(ChurnEvent::Verify { node: a, fame: 1.0 });
            for &c in &customer {
                events.push(ChurnEvent::Follow { source: a, target: c });
            }
            if let Some(alias) = &celeb_alias {
                let mut seen: Vec<NodeId> = Vec::new();
                for _ in 0..cfg.camouflage_follows {
                    for _ in 0..12 {
                        let t = alias.sample(&mut rng) as NodeId;
                        if !seen.contains(&t) && customer.first() != Some(&t) {
                            seen.push(t);
                            events.push(ChurnEvent::Follow { source: a, target: t });
                            break;
                        }
                    }
                }
            }
        }
        for (offset, events) in per_day.into_iter().enumerate() {
            if !events.is_empty() {
                schedule.push((start_day + offset as u32, events));
            }
        }
        burst_accounts.extend(accounts);
        customers.extend(customer);
    }
    schedule.sort_by_key(|&(d, _)| d);

    let total = next_id;
    let mut graph_edges: Vec<(NodeId, NodeId)> = ring_edges;
    graph_edges.sort_unstable();
    graph_edges.dedup();
    let mut builder = StreamingBuilder::new(total);
    for u in 0..n_base {
        for &v in base.out_neighbors(u) {
            builder.count(u, v).expect("base ids in range");
        }
    }
    for &(u, v) in &graph_edges {
        builder.count(u, v).expect("ring ids in range");
    }
    builder.seal_degrees().expect("first seal");
    for u in 0..n_base {
        for &v in base.out_neighbors(u) {
            builder.place(u, v).expect("pass 2 replays pass 1");
        }
    }
    for &(u, v) in &graph_edges {
        builder.place(u, v).expect("pass 2 replays pass 1");
    }
    let (graph, _) = builder.finish().expect("pass 2 replayed pass 1 exactly");

    ring_members.sort_unstable();
    burst_accounts.sort_unstable();
    customers.sort_unstable();
    customers.dedup();
    SybilWorkload {
        graph,
        labels: PlantedLabels { ring_members, burst_accounts, customers },
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChurnConfig, VerifiedNetConfig, VerifiedNetwork};

    fn base() -> DiGraph {
        let mut rng = StdRng::seed_from_u64(17);
        VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng).graph
    }

    #[test]
    fn injection_is_deterministic_and_labeled() {
        let g = base();
        let cfg = SybilConfig::default();
        let a = inject_sybil(&g, &cfg);
        let b = inject_sybil(&g, &cfg);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.labels.sybils().len(), cfg.planted_count());
        // Ring members carry the clique degree; burst accounts are still
        // dormant in the day-0 graph.
        let m = a.labels.ring_members[0];
        assert_eq!(
            a.graph.out_degree(m) as u32,
            cfg.ring_size - 1 + cfg.customers_per_ring
        );
        let burst = a.labels.burst_accounts[0];
        assert_eq!(a.graph.out_degree(burst), 0);
        assert_eq!(a.graph.in_degree(burst), 0);
        // Final graph applies the campaigns.
        let fin = a.final_graph();
        assert!(fin.out_degree(burst) >= 1);
        // Labels round-trip.
        let blob = a.labels.serialize();
        assert_eq!(PlantedLabels::deserialize(&blob).unwrap(), a.labels);
        assert!(PlantedLabels::deserialize(b"junk").is_err());
        assert!(a.labels.is_sybil(m));
        assert!(!a.labels.is_sybil(0));
    }

    #[test]
    fn list_length_past_the_blob_is_truncation_not_allocation() {
        // 12 bytes declaring a 4-billion-id ring list.
        let mut blob = b"VNSY".to_vec();
        blob.extend_from_slice(&1u32.to_le_bytes());
        blob.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(blob.len(), 12);
        assert_eq!(PlantedLabels::deserialize(&blob), Err("truncated planted-label blob".into()));
    }

    #[test]
    fn bursts_arrive_as_churn_days() {
        let g = base();
        let cfg = SybilConfig::default();
        let w = inject_sybil(&g, &cfg);
        let mut stream = ChurnStream::from_graph(
            &w.graph,
            ChurnConfig { seed: 21, ..ChurnConfig::default() },
        );
        w.attach(&mut stream);
        assert_eq!(stream.scheduled_days().len(), (cfg.bursts * cfg.burst_span) as usize);
        let last_day = cfg.burst_day + (cfg.bursts - 1) * cfg.burst_stride + cfg.burst_span - 1;
        let mut burst_follows = 0usize;
        for _ in 0..last_day {
            let batch = stream.next_day();
            for e in &batch.events {
                if let ChurnEvent::Follow { source, .. } = e {
                    if w.labels.burst_accounts.binary_search(source).is_ok() {
                        burst_follows += 1;
                    }
                }
            }
        }
        assert!(stream.scheduled_days().is_empty(), "all campaigns fired");
        // Each burst account made its customer follow; most camouflage
        // follows land too (a few may collide and be skipped).
        let floor = (cfg.bursts * cfg.burst_size) as usize;
        assert!(burst_follows >= floor, "{burst_follows} < {floor}");
        // The churned graph contains the campaign edges from the static
        // final view (organic churn may add/remove others).
        let churned = stream.snapshot_graph();
        let burst = w.labels.burst_accounts[0];
        assert!(churned.out_degree(burst) >= 1);
    }
}
