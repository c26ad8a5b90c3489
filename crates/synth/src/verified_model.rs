//! The calibrated verified-network generator.

use rand::Rng;
use vnet_graph::{DiGraph, NodeId, StreamStats, StreamingBuilder};
use vnet_stats::dist::sample_standard_normal;
use vnet_stats::sampling::{AliasTable, ContinuousPowerLaw, DiscretePowerLaw};

/// Structural role of a node in the generated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// No edges at all (the paper's 6,027 isolated verified users).
    Isolated,
    /// Zero out-degree but positive fame: a celebrity core of an
    /// attracting component (`@ladbible`, `@SriSri`, ... in the paper).
    CelebritySink,
    /// Ordinary active account.
    Active,
}

/// Configuration of the verified-network generator.
///
/// Defaults are calibrated so the generated graph reproduces the paper's
/// Section III/IV fingerprint at reproduction scale; see the crate-level
/// docs and `EXPERIMENTS.md` for measured values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifiedNetConfig {
    /// Number of nodes (paper: 231,246; default reproduction scale 1:10).
    pub nodes: u32,
    /// Target mean out-degree over all nodes (paper: 342.55; scaled down
    /// by default to keep examples fast while preserving shape).
    pub mean_out_degree: f64,
    /// Fraction of isolated nodes (paper: 6,027 / 231,246 ≈ 0.026).
    pub isolated_fraction: f64,
    /// Number of celebrity sinks (paper: ≈64 non-isolated attracting
    /// singletons, i.e. 6,091 attracting − 6,027 isolated).
    pub celebrity_sinks: u32,
    /// Power-law exponent of the out-degree tail (paper fit: 3.24).
    pub out_tail_alpha: f64,
    /// Probability that a node's out-degree is drawn from the power-law
    /// tail rather than the log-normal bulk.
    pub out_tail_fraction: f64,
    /// σ of the log-normal out-degree bulk.
    pub out_bulk_sigma: f64,
    /// Power-law exponent of the fame (in-degree attractiveness) field.
    pub fame_alpha: f64,
    /// Probability that an out-slot creates a *mutual* pair rather than a
    /// one-way follow. Reciprocity = 2q/(1+q); q = 0.203 → 33.7%.
    pub mutual_fraction: f64,
    /// Fame exponent for *mutual-partner* selection: mutual pairs form
    /// with probability ∝ fame^exponent, concentrating reciprocal ties
    /// among prominent accounts. This is the mechanism behind the paper's
    /// §IV-C conjecture ("a larger core of publicly relevant and
    /// consequential personalities"); 1.0 disables the concentration.
    pub mutual_fame_exponent: f64,
    /// Probability that a one-way target is chosen by triadic closure
    /// (follow a friend-of-friend) instead of globally by fame; drives
    /// clustering toward the paper's 0.1583.
    pub triadic_closure: f64,
}

impl Default for VerifiedNetConfig {
    fn default() -> Self {
        Self {
            nodes: 23_124,
            mean_out_degree: 40.0,
            isolated_fraction: 0.026,
            celebrity_sinks: 6,
            out_tail_alpha: 3.24,
            out_tail_fraction: 0.10,
            out_bulk_sigma: 1.0,
            fame_alpha: 2.35,
            mutual_fraction: 0.203,
            mutual_fame_exponent: 1.35,
            triadic_closure: 0.92,
        }
    }
}

impl VerifiedNetConfig {
    /// A small configuration for unit tests and quick examples.
    pub fn small() -> Self {
        Self { nodes: 4_000, mean_out_degree: 25.0, celebrity_sinks: 3, ..Self::default() }
    }

    /// The memory-benchmark tier: ~60k nodes / ~5M edges — an order of
    /// magnitude past the default reproduction scale, still minutes-cheap
    /// on one core. `BENCH_par.json` and `docs/SCALING.md` are recorded at
    /// this scale.
    pub fn medium() -> Self {
        Self {
            nodes: 60_000,
            mean_out_degree: 85.0,
            celebrity_sinks: 16,
            ..Self::default()
        }
    }

    /// The full paper-scale configuration (231,246 nodes, mean out-degree
    /// 342.55 → ~79M edges). Heavy: build time is minutes and memory ~2 GB.
    pub fn paper_scale() -> Self {
        Self {
            nodes: 231_246,
            mean_out_degree: 342.55,
            celebrity_sinks: 64,
            ..Self::default()
        }
    }

    /// Ablation: no mutual-pair coupling (reciprocity collapses to chance).
    pub fn without_reciprocity(mut self) -> Self {
        self.mutual_fraction = 0.0;
        self
    }

    /// Ablation: no triadic closure (clustering collapses).
    pub fn without_triadic_closure(mut self) -> Self {
        self.triadic_closure = 0.0;
        self
    }

    /// Ablation: no celebrity sinks (attracting components become
    /// isolated-only).
    pub fn without_sinks(mut self) -> Self {
        self.celebrity_sinks = 0;
        self
    }
}

/// A generated verified network with its ground truth.
#[derive(Debug, Clone)]
pub struct VerifiedNetwork {
    /// The follow graph.
    pub graph: DiGraph,
    /// Role of each node.
    pub roles: Vec<NodeRole>,
    /// Fame weight of each node (the popularity field that drove
    /// in-degree); reused by `vnet-twittersim` to synthesize correlated
    /// global follower counts.
    pub fame: Vec<f64>,
    /// The configuration that produced this network.
    pub config: VerifiedNetConfig,
    /// Arena byte accounting from the streaming CSR build (feeds the
    /// `graph.synth_*_bytes` gauges `verified-net` publishes).
    pub stream: StreamStats,
}

impl VerifiedNetwork {
    /// Generate a network from `config` using `rng`.
    ///
    /// # Examples
    /// ```
    /// use rand::SeedableRng;
    /// use vnet_synth::{VerifiedNetConfig, VerifiedNetwork};
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let net = VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng);
    /// assert_eq!(net.graph.node_count(), 4_000);
    /// ```
    pub fn generate<R: Rng + ?Sized>(config: &VerifiedNetConfig, rng: &mut R) -> Self {
        let (adj, roles, fame) = wire(config, rng);
        let n = config.nodes;
        // Freeze through the streaming two-pass builder: pass 1 reads the
        // per-node degrees straight off the staged adjacency, pass 2
        // counting-sorts every edge into its final CSR slot. The staged
        // lists are dropped before the reverse CSR is derived, so the peak
        // working set from here on is the final CSR plus one cursor array.
        let mut b = StreamingBuilder::new(n);
        for (u, list) in adj.iter().enumerate() {
            for &v in list {
                b.count(u as NodeId, v).expect("generated ids are in range");
            }
        }
        b.seal_degrees().expect("first seal");
        for (u, list) in adj.iter().enumerate() {
            for &v in list {
                b.place(u as NodeId, v).expect("pass 2 replays pass 1");
            }
        }
        drop(adj);
        let (graph, stream) = b.finish().expect("pass 2 replayed pass 1 exactly");
        VerifiedNetwork { graph, roles, fame, config: *config, stream }
    }

    /// Node ids by role.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == role)
            .map(|(i, _)| i as NodeId)
            .collect()
    }
}

/// The generative core: roles, fame, degree targets, and the wired (still
/// mutable) adjacency lists.
#[allow(clippy::type_complexity)]
fn wire<R: Rng + ?Sized>(
    config: &VerifiedNetConfig,
    rng: &mut R,
) -> (Vec<Vec<NodeId>>, Vec<NodeRole>, Vec<f64>) {
    {
        let n = config.nodes as usize;
        assert!(n >= 10, "need at least 10 nodes");
        assert!(
            (0.0..0.9).contains(&config.isolated_fraction),
            "isolated_fraction out of range"
        );
        assert!((0.0..=1.0).contains(&config.mutual_fraction), "mutual_fraction out of range");
        assert!((0.0..=1.0).contains(&config.triadic_closure), "triadic_closure out of range");

        // --- Roles ------------------------------------------------------
        let n_iso = (config.isolated_fraction * n as f64).round() as usize;
        let n_sink = (config.celebrity_sinks as usize).min(n - n_iso);
        let mut roles = vec![NodeRole::Active; n];
        // Deterministic role layout (shuffled ids would not change any
        // statistic): the first n_sink nodes are sinks, the last n_iso are
        // isolated.
        for role in roles.iter_mut().take(n_sink) {
            *role = NodeRole::CelebritySink;
        }
        for role in roles.iter_mut().rev().take(n_iso) {
            *role = NodeRole::Isolated;
        }

        // --- Fame field ---------------------------------------------------
        // Pareto fame for active nodes; sinks sit in the extreme tail
        // (they are world-famous by construction); isolated nodes have none.
        let fame_sampler = ContinuousPowerLaw::new(config.fame_alpha, 1.0);
        let mut fame = vec![0.0f64; n];
        let mut max_fame = 0.0f64;
        for v in 0..n {
            if roles[v] == NodeRole::Active {
                fame[v] = fame_sampler.sample(rng);
                max_fame = max_fame.max(fame[v]);
            }
        }
        for v in 0..n {
            if roles[v] == NodeRole::CelebritySink {
                // Comfortably in the global fame top tier.
                fame[v] = max_fame * (1.5 + rng.random::<f64>());
            }
        }

        // --- Out-degree targets -----------------------------------------
        // Mixture: log-normal bulk + discrete power-law tail, scaled so
        // the realized mean matches `mean_out_degree` over ALL nodes.
        let tail_xmin = (config.mean_out_degree * 2.5).max(4.0).round() as u64;
        let tail = DiscretePowerLaw::new(config.out_tail_alpha, tail_xmin);
        let tail_mean =
            tail_xmin as f64 * (config.out_tail_alpha - 1.0) / (config.out_tail_alpha - 2.0);
        let active_count = n - n_iso - n_sink;
        // Every edge endpoint comes from an active node's out-slots; the
        // global mean counts isolated and sink nodes too.
        let slots_needed = config.mean_out_degree * n as f64;
        // Mutual slots mint 2 edges each: scale target slots down.
        let per_active = slots_needed / (1.0 + config.mutual_fraction) / active_count as f64;
        let bulk_target = (per_active - config.out_tail_fraction * tail_mean)
            / (1.0 - config.out_tail_fraction);
        assert!(
            bulk_target > 1.0,
            "mean_out_degree too small for the configured tail (bulk target {bulk_target})"
        );
        let sigma = config.out_bulk_sigma;
        let mu = bulk_target.ln() - sigma * sigma / 2.0;

        let mut out_target = vec![0u64; n];
        for v in 0..n {
            if roles[v] != NodeRole::Active {
                continue;
            }
            out_target[v] = if rng.random::<f64>() < config.out_tail_fraction {
                tail.sample(rng)
            } else {
                let d = (mu + sigma * sample_standard_normal(rng)).exp();
                d.round().max(1.0) as u64
            };
            // No node can follow more than everyone else.
            out_target[v] = out_target[v].min(n as u64 - 1);
        }

        // --- Target sampling table ---------------------------------------
        // Anyone with fame can be followed (active + sinks).
        let followable: Vec<NodeId> =
            (0..n as u32).filter(|&v| fame[v as usize] > 0.0).collect();
        let weights: Vec<f64> = followable.iter().map(|&v| fame[v as usize]).collect();
        let alias = AliasTable::new(&weights);
        // Mutual partners must be able to follow back: active only.
        let mutual_pool: Vec<NodeId> =
            (0..n as u32).filter(|&v| roles[v as usize] == NodeRole::Active).collect();
        let mutual_weights: Vec<f64> = mutual_pool
            .iter()
            .map(|&v| fame[v as usize].powf(config.mutual_fame_exponent))
            .collect();
        let mutual_alias = AliasTable::new(&mutual_weights);

        // --- Wiring -------------------------------------------------------
        // Adjacency staging for triadic closure lookups: we keep each
        // node's current out-list as it grows.
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        // Fame concentration makes repeated draws of the same celebrity
        // pair likely; deduplicating here keeps the realized mutual-edge
        // count (and thus global reciprocity) at its configured level.
        let mut mutual_seen: std::collections::HashSet<(NodeId, NodeId)> =
            std::collections::HashSet::with_capacity(
                (config.mutual_fraction * slots_needed) as usize,
            );
        // Per-source target set: fame concentration makes repeated draws of
        // the same celebrity target likely, and silent dedup at build time
        // would shrink realized degrees (30%+ at paper scale). Retrying on
        // collision keeps realized out-degrees at their targets.
        let mut my_targets: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
        for u in 0..n as u32 {
            let d = out_target[u as usize];
            my_targets.clear();
            for _ in 0..d {
                let roll: f64 = rng.random();
                if roll < config.mutual_fraction {
                    // Mutual pair; retry a few times to dodge collisions.
                    // The fame^exponent weights are so top-heavy (the tail
                    // exponent of fame^e is (alpha-1)/e, near 1 at the
                    // defaults) that the weighted table saturates after a
                    // handful of distinct partners; without a fallback most
                    // mutual slots silently mint nothing and reciprocity
                    // lands far below 2q/(1+q). Uniform fallback keeps the
                    // slot productive while leaving the bulk of pairs
                    // fame-concentrated.
                    let mut minted = false;
                    for _ in 0..12 {
                        let v = mutual_pool[mutual_alias.sample(rng)];
                        if v == u || my_targets.contains(&v) {
                            continue;
                        }
                        let key = (u.min(v), u.max(v));
                        if mutual_seen.insert(key) {
                            my_targets.insert(v);
                            adj[u as usize].push(v);
                            adj[v as usize].push(u);
                            minted = true;
                            break;
                        }
                    }
                    if !minted {
                        for _ in 0..24 {
                            let v = mutual_pool[rng.random_range(0..mutual_pool.len())];
                            if v == u || my_targets.contains(&v) {
                                continue;
                            }
                            let key = (u.min(v), u.max(v));
                            if mutual_seen.insert(key) {
                                my_targets.insert(v);
                                adj[u as usize].push(v);
                                adj[v as usize].push(u);
                                break;
                            }
                        }
                    }
                } else {
                    // One-way follow; maybe triadic. Retry on collision
                    // with an already-chosen target.
                    for _ in 0..12 {
                        let v = if rng.random::<f64>() < config.triadic_closure {
                            sample_friend_of_friend(&adj, u, rng)
                                .unwrap_or_else(|| followable[alias.sample(rng)])
                        } else {
                            followable[alias.sample(rng)]
                        };
                        if v != u && my_targets.insert(v) {
                            adj[u as usize].push(v);
                            break;
                        }
                    }
                }
            }
        }
        (adj, roles, fame)
    }
}

/// Pick a random out-neighbor of a random out-neighbor of `u` (triadic
/// closure step). `None` when `u` has no two-hop neighborhood yet.
fn sample_friend_of_friend<R: Rng + ?Sized>(
    adj: &[Vec<NodeId>],
    u: NodeId,
    rng: &mut R,
) -> Option<NodeId> {
    let first = &adj[u as usize];
    if first.is_empty() {
        return None;
    }
    let w = first[rng.random_range(0..first.len())];
    let second = &adj[w as usize];
    if second.is_empty() {
        return None;
    }
    let v = second[rng.random_range(0..second.len())];
    (v != u).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vnet_algos::components::{attracting_components, strongly_connected_components};
    use vnet_algos::reciprocity::reciprocity;

    fn small_net(seed: u64) -> VerifiedNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        VerifiedNetwork::generate(&VerifiedNetConfig::small(), &mut rng)
    }

    #[test]
    fn isolated_fraction_respected() {
        let net = small_net(1);
        let isolated = net.graph.isolated_nodes().len();
        let expected = 0.026 * 4000.0;
        assert!(
            (isolated as f64 - expected).abs() < expected * 0.25 + 5.0,
            "isolated={isolated}, expected≈{expected}"
        );
        // Every node flagged Isolated truly has no edges.
        for v in net.nodes_with_role(NodeRole::Isolated) {
            assert!(net.graph.is_isolated(v));
        }
    }

    #[test]
    fn sinks_have_zero_out_and_high_in() {
        let net = small_net(2);
        let sinks = net.nodes_with_role(NodeRole::CelebritySink);
        assert_eq!(sinks.len(), 3);
        let mean_in = net.graph.edge_count() as f64 / net.graph.node_count() as f64;
        for s in sinks {
            assert_eq!(net.graph.out_degree(s), 0, "sink follows someone");
            assert!(
                net.graph.in_degree(s) as f64 > 5.0 * mean_in,
                "sink in-degree {} not celebrity-grade (mean {mean_in})",
                net.graph.in_degree(s)
            );
        }
    }

    #[test]
    fn reciprocity_near_paper_value() {
        let net = small_net(3);
        let r = reciprocity(&net.graph);
        assert!((r - 0.337).abs() < 0.05, "reciprocity={r}");
    }

    #[test]
    fn reciprocity_ablation_collapses() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = VerifiedNetConfig::small().without_reciprocity();
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let r = reciprocity(&net.graph);
        assert!(r < 0.05, "reciprocity without coupling should be near chance, got {r}");
    }

    #[test]
    fn mean_degree_close_to_target() {
        let net = small_net(5);
        let mean = net.graph.mean_out_degree();
        assert!((mean - 25.0).abs() < 5.0, "mean out-degree {mean} vs target 25");
    }

    #[test]
    fn giant_scc_dominates() {
        let net = small_net(6);
        let scc = strongly_connected_components(&net.graph);
        let frac = scc.giant_fraction();
        assert!(frac > 0.9, "giant SCC fraction {frac}");
    }

    #[test]
    fn attracting_components_are_isolated_plus_sinks() {
        let net = small_net(7);
        let ac = attracting_components(&net.graph);
        let n_iso = net.graph.isolated_nodes().len();
        // Paper structure: attracting = isolated singletons + celebrity
        // sinks (possibly ±1 for rare stray sink SCCs).
        let expected = n_iso + 3;
        assert!(
            (ac.len() as i64 - expected as i64).abs() <= 2,
            "attracting={} expected≈{expected}",
            ac.len()
        );
    }

    #[test]
    fn sink_ablation_removes_nontrivial_attractors() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = VerifiedNetConfig::small().without_sinks();
        let net = VerifiedNetwork::generate(&cfg, &mut rng);
        let ac = attracting_components(&net.graph);
        let n_iso = net.graph.isolated_nodes().len();
        assert!(
            (ac.len() as i64 - n_iso as i64).abs() <= 2,
            "attracting {} vs isolated {n_iso}",
            ac.len()
        );
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let a = small_net(42);
        let b = small_net(42);
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.fame, b.fame);
    }

    #[test]
    fn out_degree_tail_is_heavy() {
        let net = small_net(9);
        let degrees = net.graph.out_degrees();
        let max = *degrees.iter().max().unwrap();
        let mean = net.graph.mean_out_degree();
        // Heavy tail: the hub exceeds the mean by an order of magnitude.
        assert!(max as f64 > 10.0 * mean, "max={max} mean={mean}");
    }

    #[test]
    #[should_panic(expected = "mean_out_degree too small")]
    fn infeasible_config_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = VerifiedNetConfig {
            mean_out_degree: 1.0,
            out_tail_fraction: 0.9,
            ..VerifiedNetConfig::small()
        };
        VerifiedNetwork::generate(&cfg, &mut rng);
    }
}

