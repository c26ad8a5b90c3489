//! What the two serve workloads share: the in-process server and its three
//! shards, a line client, request lines, and the in-process oracle every
//! served `analyze` reply is checked against.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use verified_net::{
    run_analysis_section, AnalysisCtx, AnalysisOptions, Dataset, Section, SynthesisConfig,
};
use vnet_obs::{fingerprint_str, HistogramSnapshot, Obs};
use vnet_serve::{AdmissionPolicy, Server, ServerConfig, ServerHandle, STAGES};
use vnet_synth::{inject_sybil, ChurnConfig, ChurnStream, SybilConfig};

use crate::Report;

/// The two plain `small` shards.
pub const PLAIN: [&str; 2] = ["alpha", "beta"];
/// The churn + sybil shard that answers `as_of` and `detect`.
pub const ADV: &str = "adv";
/// Churn horizon of the `adv` shard.
pub const CHURN_DAYS: u32 = 30;
/// Churn seed of the `adv` shard. Fixed, not drawn from the workload
/// seed: the detect recall floor is checked at this horizon and seed.
pub const CHURN_SEED: u64 = 23;
/// Recall the served detector must reach at the horizon.
const RECALL_FLOOR: f64 = 0.9;

/// The server configuration both serve workloads use: the analysis pool
/// at `nproc`, and admission on with a quota no client reaches, so the
/// admission stage runs on every request and rejects none.
fn config(nproc: usize) -> ServerConfig {
    ServerConfig {
        threads: nproc,
        queue_depth: 64,
        admission: Some(AdmissionPolicy {
            requests: u32::MAX,
            window_millis: 1_000,
        }),
        ..ServerConfig::default()
    }
}

/// One line-protocol connection used request by request.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect to the loopback server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone the stream"));
        Client { reader, writer }
    }

    /// Send one request line and read its reply line.
    pub fn req(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("write failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

/// A running server with its three shards registered over the wire.
pub struct Serving {
    pub handle: ServerHandle,
    /// Seconds the churn + sybil `register` took.
    pub register_adv_s: f64,
    /// Dataset fingerprints the `register` replies reported, by shard.
    pub fingerprints: BTreeMap<String, u64>,
}

impl Serving {
    /// Start the server and register `alpha`, `beta` and `adv`.
    pub fn start(nproc: usize) -> Result<Serving, String> {
        let handle = Server::start(config(nproc)).map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(handle.local_addr());
        let mut fingerprints = BTreeMap::new();
        let mut register = |name: &str, extra: &str| -> Result<f64, String> {
            let started = Instant::now();
            let reply = client.req(&format!(
                r#"{{"v":1,"cmd":"register","name":"{name}","scale":"small"{extra}}}"#
            ))?;
            let secs = started.elapsed().as_secs_f64();
            let v: serde_json::Value =
                serde_json::from_str(&reply).map_err(|e| format!("register reply: {e}"))?;
            match (v["ok"].as_bool(), v["fingerprint"].as_u64()) {
                (Some(true), Some(fp)) => {
                    fingerprints.insert(name.to_string(), fp);
                    Ok(secs)
                }
                _ => Err(format!("register {name} failed: {reply}")),
            }
        };
        for name in PLAIN {
            register(name, "")?;
        }
        let register_adv_s = register(
            ADV,
            &format!(r#","churn_days":{CHURN_DAYS},"churn_seed":{CHURN_SEED},"sybil":true"#),
        )?;
        Ok(Serving {
            handle,
            register_adv_s,
            fingerprints,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.local_addr()
    }

    pub fn obs(&self) -> std::sync::Arc<Obs> {
        self.handle.obs_handle()
    }

    /// Drain and stop the server, joining every thread it started.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// An `analyze` request: one section of a shard, optionally as of a
/// churn day, under the quick preset with options seed `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Analyze {
    pub shard: &'static str,
    pub section: Section,
    pub seed: u64,
    pub day: Option<u32>,
}

impl Analyze {
    pub fn line(&self, client: &str) -> String {
        let as_of = self
            .day
            .map(|d| format!(r#","as_of":{d}"#))
            .unwrap_or_default();
        format!(
            r#"{{"v":1,"cmd":"analyze","snapshot":"{}","sections":["{}"],"options":{{"seed":{}}},"client":"{client}"{as_of}}}"#,
            self.shard,
            self.section.id(),
            self.seed,
        )
    }
}

/// A `detect` request; `day: None` asks for the horizon.
pub fn detect_line(day: Option<u32>, top_k: usize, client: &str) -> String {
    let as_of = day.map(|d| format!(r#","as_of":{d}"#)).unwrap_or_default();
    format!(
        r#"{{"v":1,"cmd":"detect","snapshot":"{ADV}","top_k":{top_k},"client":"{client}"{as_of}}}"#
    )
}

/// The datasets the server builds, rebuilt in-process: the plain `small`
/// dataset, the sybil-planted base of `adv`, and `adv` as of any day.
pub struct Oracle {
    plain: Fingerprinted,
    adv: Fingerprinted,
    days: BTreeMap<u32, Fingerprinted>,
    ctx: AnalysisCtx,
}

/// A dataset with its content fingerprint, computed once.
struct Fingerprinted {
    dataset: Dataset,
    fingerprint: u64,
}

impl Fingerprinted {
    fn new(dataset: Dataset) -> Self {
        let fingerprint = dataset.fingerprint();
        Fingerprinted {
            dataset,
            fingerprint,
        }
    }
}

impl Oracle {
    /// Rebuild the shard datasets, and `adv` as of each day in `days`,
    /// with a plain churn replay (no timeline, no checkpoints).
    pub fn new(days: &[u32]) -> Oracle {
        let ctx = AnalysisCtx::quiet();
        let plain = Dataset::build(&SynthesisConfig::small(), &ctx);
        let workload = inject_sybil(&plain.graph, &SybilConfig::default());
        let adv = Dataset {
            graph: workload.graph.clone(),
            ..plain.clone()
        };
        let mut stream = ChurnStream::from_graph(
            &adv.graph,
            ChurnConfig {
                seed: CHURN_SEED,
                ..ChurnConfig::default()
            },
        );
        workload.attach(&mut stream);
        let last = days.iter().copied().max().unwrap_or(0);
        let mut by_day = BTreeMap::new();
        for day in 1..=last {
            stream.next_day();
            if days.contains(&day) {
                let dataset = Dataset {
                    graph: stream.snapshot_graph(),
                    ..adv.clone()
                };
                by_day.insert(day, Fingerprinted::new(dataset));
            }
        }
        Oracle {
            plain: Fingerprinted::new(plain),
            adv: Fingerprinted::new(adv),
            days: by_day,
            ctx,
        }
    }

    /// Check the registered fingerprints against the rebuilt datasets.
    pub fn check_registration(&self, serving: &Serving, report: &mut Report) {
        for name in PLAIN {
            let got = serving.fingerprints.get(name).copied();
            report.check(got == Some(self.plain.fingerprint), || {
                format!("shard {name} registered fingerprint {got:?} differs from the oracle")
            });
        }
        let got = serving.fingerprints.get(ADV).copied();
        report.check(got == Some(self.adv.fingerprint), || {
            format!("shard {ADV} registered fingerprint {got:?} differs from the oracle")
        });
    }

    fn dataset(&self, a: &Analyze) -> &Fingerprinted {
        match a.day {
            Some(day) => &self.days[&day],
            None if a.shard == ADV => &self.adv,
            None => &self.plain,
        }
    }

    /// The (dataset fingerprint, section fingerprint) a correct reply to
    /// `a` carries.
    pub fn expect(&self, a: &Analyze) -> Result<(u64, u64), String> {
        let ds = self.dataset(a);
        let opts = AnalysisOptions {
            seed: a.seed,
            ..AnalysisOptions::quick()
        };
        let payload = run_analysis_section(&ds.dataset, a.section, &opts, &self.ctx)
            .map_err(|e| format!("oracle {a:?} failed: {e}"))?;
        let json = serde_json::to_string(&payload).expect("section payloads serialize");
        Ok((ds.fingerprint, fingerprint_str(&json)))
    }
}

/// Check one `analyze` reply against the oracle's expectation.
pub fn check_analyze(reply: &str, a: &Analyze, want: (u64, u64)) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(reply).map_err(|e| format!("unparseable reply to {a:?} ({e})"))?;
    if v["ok"].as_bool() != Some(true) {
        return Err(format!("{a:?} failed: {reply}"));
    }
    let got = (
        v["dataset_fingerprint"].as_u64(),
        v["sections"][0]["fingerprint"].as_u64(),
    );
    if v["snapshot"].as_str() != Some(a.shard)
        || v["as_of"].as_u64() != a.day.map(u64::from)
        || got != (Some(want.0), Some(want.1))
    {
        return Err(format!(
            "{a:?} diverged from the oracle: served {got:?}, oracle {want:?}"
        ));
    }
    Ok(())
}

/// Check one `detect` reply's envelope, and at the horizon its recall.
pub fn check_detect(reply: &str, day: Option<u32>) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(reply).map_err(|e| format!("unparseable detect reply ({e})"))?;
    if v["ok"].as_bool() != Some(true) {
        return Err(format!("detect failed: {reply}"));
    }
    if day.is_none() {
        let recall = v["detect"]["eval"]["recall_at_planted"]
            .as_f64()
            .unwrap_or(0.0);
        if recall < RECALL_FLOOR {
            return Err(format!(
                "detect recall {recall} at the horizon is under {RECALL_FLOOR}"
            ));
        }
    }
    Ok(())
}

/// The server's global cache counters at one point in time.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub asof_materializations: u64,
    pub asof_cache_hits: u64,
}

impl CacheCounters {
    pub fn read(obs: &Obs) -> CacheCounters {
        let m = obs.metrics();
        let counter = |name: &str| m.counter(name, &[]);
        CacheCounters {
            hits: counter("cache.hits"),
            misses: counter("cache.misses"),
            coalesced: counter("serve.coalesced"),
            asof_materializations: counter("serve.asof_materializations"),
            asof_cache_hits: counter("serve.asof_cache_hits"),
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            coalesced: self.coalesced - before.coalesced,
            asof_materializations: self.asof_materializations - before.asof_materializations,
            asof_cache_hits: self.asof_cache_hits - before.asof_cache_hits,
        }
    }
}

/// Count and sum of each stage histogram, to difference two points in
/// time.
pub fn stage_histograms(obs: &Obs) -> Vec<HistogramSnapshot> {
    let all = obs.metrics().histograms();
    STAGES
        .iter()
        .map(|stage| {
            all.get(&format!("serve.stage_wall_micros{{stage={stage}}}"))
                .cloned()
                .unwrap_or(HistogramSnapshot {
                    bounds: Vec::new(),
                    counts: Vec::new(),
                    count: 0,
                    sum: 0.0,
                })
        })
        .collect()
}
