//! Wire protocol: line-delimited JSON requests and replies.
//!
//! Each request is one JSON object on one line with a `"cmd"` key; each
//! reply is one JSON object on one line with an `"ok"` key.
//!
//! Every request carries the v1 envelope, `{"v":1,"cmd":...}` (full
//! grammar in `docs/API.md`). It is strict: unknown top-level keys and
//! unknown `options` keys are a structured `invalid_input` error, so typos
//! (`"boostrap_reps"`) fail loudly instead of silently computing the wrong
//! thing. A missing `"v"`, or a `"v"` of anything but integer `1`, gets
//! the same `invalid_input` reply naming the v1 envelope: the field is a
//! contract, not a comment.

use serde_json::Value;
use verified_net::{AnalysisOptions, AnalysisOptionsBuilder, Section, VnetError};

/// The current wire-envelope version.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on the churn horizon a `register` may request: a year of
/// simulated days is an index; ten years is a memory bomb.
pub const MAX_CHURN_DAYS: u32 = 366;

/// Where a `register` request gets its dataset from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterSource {
    /// Load a saved bundle (`verified_net::save_dataset` layout).
    Dir(String),
    /// Synthesize at a named scale (`"small"` or `"default"`).
    Scale(String),
}

/// Churn-evolution parameters of a `register` request: evolve the
/// registered graph for `days` simulated days so `analyze` can time-travel
/// with `as_of`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnSpec {
    /// Days of deterministic churn to index (1..=[`MAX_CHURN_DAYS`]).
    pub days: u32,
    /// Churn master seed (`churn_seed`, default taken by the server).
    pub seed: Option<u64>,
    /// Optional regime-shock day (`churn_shock_day`) for structural-PELT
    /// experiments.
    pub shock_day: Option<u32>,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Register a dataset snapshot under a name.
    Register {
        /// Snapshot name for later `analyze` calls.
        name: String,
        /// Bundle directory or synthesis scale.
        source: RegisterSource,
        /// When present, build a churn timeline so the snapshot answers
        /// `as_of` queries.
        churn: Option<ChurnSpec>,
        /// Inject the calibrated sybil workload (fake-follower rings live
        /// at day 0, purchased-follower bursts scheduled onto the churn
        /// stream) so the snapshot answers `detect` queries. Requires
        /// `churn_days`: the campaigns arrive as churn days.
        sybil: bool,
    },
    /// Compute (or serve from cache) one or more sections of a snapshot.
    Analyze {
        /// A previously registered snapshot name.
        snapshot: String,
        /// Sections to compute, in reply order.
        sections: Vec<Section>,
        /// Result-affecting knobs; defaults to [`AnalysisOptions::quick`].
        options: AnalysisOptions,
        /// Admission-control identity (the optional `client` field).
        /// Requests without one share the anonymous bucket (`""`).
        client: String,
        /// Time-travel day: analyze the snapshot as it stood at end of
        /// churn day `as_of` instead of the base graph.
        as_of: Option<u32>,
    },
    /// Report snapshots, in-flight work, and lifecycle state; with a
    /// `snapshot` field, just that shard's detail.
    Status {
        /// Restrict the reply to one shard.
        snapshot: Option<String>,
    },
    /// Dump the server's metric counters; with a `snapshot` field, only
    /// the series labelled `{shard=<name>}`.
    Metrics {
        /// Restrict the reply to one shard's labelled series.
        snapshot: Option<String>,
        /// Reply encoding (the optional `format` field).
        format: MetricsFormat,
    },
    /// Stream periodic metric-delta frames over this connection (the
    /// first streaming surface of the protocol).
    Watch {
        /// Restrict the frames to one shard's labelled series.
        snapshot: Option<String>,
        /// Milliseconds between delta frames.
        interval_ms: u64,
        /// Number of delta frames before `watch_complete`.
        frames: u64,
    },
    /// Run the sybil-detection pipeline over a snapshot registered with
    /// `sybil:true`, ranked by fused suspicion and scored against the
    /// planted ground truth.
    Detect {
        /// A previously registered snapshot name.
        snapshot: String,
        /// Admission-control identity (the optional `client` field).
        client: String,
        /// Score the graph as of end of churn day `as_of`; defaults to
        /// the full churn horizon.
        as_of: Option<u32>,
        /// How many top suspects the reply lists (the ranking itself is
        /// always computed over every node).
        top_k: usize,
    },
    /// Drain in-flight work, then stop accepting connections.
    Shutdown,
}

/// How a `metrics` reply is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// The PR-2 contract: one JSON object with `counters` and `gauges`
    /// maps (the default).
    #[default]
    Json,
    /// Prometheus text exposition, JSON-escaped into a `body` field so
    /// the reply stays one line.
    Prom,
}

/// Bounds on `watch` parameters: a floor under the interval so a client
/// cannot turn the server into a busy-loop broadcaster, and a cap on
/// frames so a session always terminates.
pub const WATCH_MIN_INTERVAL_MS: u64 = 10;
/// Upper bound on `interval_ms` (a frame an hour apart is a leak, not a
/// subscription).
pub const WATCH_MAX_INTERVAL_MS: u64 = 60_000;
/// Upper bound on requested frames per watch session.
pub const WATCH_MAX_FRAMES: u64 = 100_000;

/// Suspects listed in a `detect` reply when `top_k` is omitted.
pub const DETECT_DEFAULT_TOP_K: usize = 20;
/// Upper bound on `top_k` (the ranking covers every node regardless; the
/// cap bounds reply bytes, not detection work).
pub const DETECT_MAX_TOP_K: usize = 10_000;

fn required_str(v: &Value, key: &str, cmd: &str) -> Result<String, VnetError> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| VnetError::BadRequest(format!("'{cmd}' needs a string '{key}' field")))
}

/// An optional integer field that must lie in `[lo, hi]` and fit a `T`:
/// `None` when absent. A value of any other JSON type, outside the range
/// or too wide for `T` is a `bad_request` naming the field and the range,
/// never a cast and never a silent fall-back to the default. Every
/// integer field of a request but the envelope's `v` is read through here.
fn optional_int<T: TryFrom<u64>>(
    v: &Value,
    key: &str,
    lo: u64,
    hi: u64,
) -> Result<Option<T>, VnetError> {
    if v[key].is_null() {
        return Ok(None);
    }
    v[key]
        .as_u64()
        .filter(|n| (lo..=hi).contains(n))
        .and_then(|n| T::try_from(n).ok())
        .map(Some)
        .ok_or_else(|| {
            VnetError::BadRequest(format!("'{key}' must be an integer in [{lo}, {hi}]"))
        })
}

/// Top-level keys each command accepts.
fn allowed_keys(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "register" => &["v", "cmd", "name", "dir", "scale", "churn_days", "churn_seed", "churn_shock_day", "sybil"],
        "analyze" => &["v", "cmd", "snapshot", "sections", "options", "client", "as_of"],
        "detect" => &["v", "cmd", "snapshot", "client", "as_of", "top_k"],
        "status" => &["v", "cmd", "snapshot"],
        "metrics" => &["v", "cmd", "snapshot", "format"],
        "watch" => &["v", "cmd", "snapshot", "interval_ms", "frames"],
        "shutdown" => &["v", "cmd"],
        _ => &["v", "cmd"],
    }
}

/// Sets one integer knob on an options builder.
type KnobSetter = fn(AnalysisOptionsBuilder, usize) -> AnalysisOptionsBuilder;

/// The integer `options` knobs besides `seed`: name, inclusive range, and
/// setter. The lower bounds keep every section well-defined (Figure 1
/// needs a bin); the upper bounds cap work and allocations sized straight
/// from a knob. Counts of sources or pivots past the graph's node count
/// mean "every node", so those two stop at `u32::MAX`, the most nodes a
/// graph can hold.
const KNOBS: [(&str, u64, u64, KnobSetter); 10] = [
    ("threads", 1, 256, AnalysisOptionsBuilder::threads),
    ("bootstrap_reps", 0, 2_500, AnalysisOptionsBuilder::bootstrap_reps),
    ("clustering_samples", 1, 1_000_000, AnalysisOptionsBuilder::clustering_samples),
    ("distance_sources", 1, u32::MAX as u64, AnalysisOptionsBuilder::distance_sources),
    ("betweenness_pivots", 1, u32::MAX as u64, AnalysisOptionsBuilder::betweenness_pivots),
    ("eigen_k", 1, 10_000, AnalysisOptionsBuilder::eigen_k),
    ("lanczos_steps", 1, 10_000, AnalysisOptionsBuilder::lanczos_steps),
    ("lag_cap", 1, 10_000, AnalysisOptionsBuilder::lag_cap),
    ("ngram_rows", 1, 1_000, AnalysisOptionsBuilder::ngram_rows),
    ("fig1_bins", 1, 10_000, AnalysisOptionsBuilder::fig1_bins),
];

fn reject_unknown_keys(
    v: &Value,
    allowed: &[&str],
    what: &str,
) -> Result<(), VnetError> {
    let Some(keys) = v.keys() else {
        return Ok(());
    };
    for key in keys {
        if !allowed.contains(&key) {
            return Err(VnetError::InvalidInput(format!(
                "unknown {what} key '{key}' (v1 accepts: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

/// Parse the optional `options` object of an `analyze` request.
///
/// Starts from the `preset` (`"quick"`, the default, or `"default"` for
/// the full-cost battery) and overrides any numeric knob given by name.
/// Unknown option keys are rejected — a misspelled knob must not silently
/// fall back to its default — and a knob outside its [`KNOBS`] range is a
/// `bad_request` naming the knob and the range.
fn parse_options(v: &Value) -> Result<AnalysisOptions, VnetError> {
    let keys: Vec<&str> = ["preset", "seed"].into_iter().chain(KNOBS.map(|k| k.0)).collect();
    reject_unknown_keys(v, &keys, "options")?;
    let base = match v["preset"].as_str() {
        None | Some("quick") => AnalysisOptions::quick(),
        Some("default") => AnalysisOptions::default(),
        Some(other) => {
            return Err(VnetError::BadRequest(format!(
                "unknown options preset '{other}' (quick|default)"
            )))
        }
    };
    let mut b = base.to_builder();
    if let Some(seed) = optional_int(v, "seed", 0, u64::MAX)? {
        b = b.seed(seed);
    }
    for (key, lo, hi, set) in KNOBS {
        if let Some(n) = optional_int(v, key, lo, hi)? {
            b = set(b, n);
        }
    }
    Ok(b.build())
}

/// Parse the churn knobs of a `register` request.
fn parse_churn(v: &Value) -> Result<Option<ChurnSpec>, VnetError> {
    let Some(days) = optional_int(v, "churn_days", 1, MAX_CHURN_DAYS.into())? else {
        if !v["churn_seed"].is_null() || !v["churn_shock_day"].is_null() {
            return Err(VnetError::BadRequest(
                "churn_seed/churn_shock_day need a 'churn_days' field".into(),
            ));
        }
        return Ok(None);
    };
    let seed = optional_int(v, "churn_seed", 0, u64::MAX)?;
    let shock_day = optional_int(v, "churn_shock_day", 0, u32::MAX.into())?;
    Ok(Some(ChurnSpec { days, seed, shock_day }))
}

/// Parse one request line into a [`Request`].
pub fn parse_request(line: &str) -> Result<Request, VnetError> {
    let v: Value = serde_json::from_str(line.trim())
        .map_err(|e| VnetError::BadRequest(format!("request is not valid JSON: {e}")))?;
    if v["v"].as_u64() != Some(PROTOCOL_VERSION) {
        return Err(VnetError::InvalidInput(format!(
            "missing or unsupported protocol version; send the v{PROTOCOL_VERSION} envelope {{\"v\":{PROTOCOL_VERSION},\"cmd\":...}} (see docs/API.md)"
        )));
    }
    let cmd = v["cmd"]
        .as_str()
        .ok_or_else(|| VnetError::BadRequest("request needs a string 'cmd' field".into()))?;
    reject_unknown_keys(&v, allowed_keys(cmd), "request")?;
    let request = match cmd {
        "register" => {
            let name = required_str(&v, "name", "register")?;
            let source = if let Some(dir) = v["dir"].as_str() {
                RegisterSource::Dir(dir.to_string())
            } else if let Some(scale) = v["scale"].as_str() {
                match scale {
                    "small" | "default" => RegisterSource::Scale(scale.to_string()),
                    other => {
                        return Err(VnetError::BadRequest(format!(
                            "unknown scale '{other}' (small|default)"
                        )))
                    }
                }
            } else {
                return Err(VnetError::BadRequest(
                    "'register' needs a 'dir' or 'scale' field".into(),
                ));
            };
            let churn = parse_churn(&v)?;
            let sybil = match &v["sybil"] {
                s if s.is_null() => false,
                s => s.as_bool().ok_or_else(|| {
                    VnetError::BadRequest("'sybil' must be a boolean".into())
                })?,
            };
            if sybil && churn.is_none() {
                return Err(VnetError::BadRequest(
                    "'sybil' needs a 'churn_days' field: the planted campaigns arrive as churn days"
                        .into(),
                ));
            }
            Request::Register { name, source, churn, sybil }
        }
        "detect" => {
            let snapshot = required_str(&v, "snapshot", "detect")?;
            let client = v["client"].as_str().unwrap_or("").to_string();
            let as_of = optional_int(&v, "as_of", 0, u32::MAX.into())?;
            let top_k = optional_int(&v, "top_k", 1, DETECT_MAX_TOP_K as u64)?
                .unwrap_or(DETECT_DEFAULT_TOP_K);
            Request::Detect { snapshot, client, as_of, top_k }
        }
        "analyze" => {
            let snapshot = required_str(&v, "snapshot", "analyze")?;
            let mut sections = Vec::new();
            let list = &v["sections"];
            let mut i = 0;
            while !list[i].is_null() {
                let id = list[i].as_str().ok_or_else(|| {
                    VnetError::BadRequest("'sections' must be an array of section ids".into())
                })?;
                sections.push(id.parse::<Section>()?);
                i += 1;
            }
            if sections.is_empty() {
                return Err(VnetError::BadRequest(
                    "'analyze' needs a non-empty 'sections' array".into(),
                ));
            }
            let options = parse_options(&v["options"])?;
            let client = v["client"].as_str().unwrap_or("").to_string();
            let as_of = optional_int(&v, "as_of", 0, u32::MAX.into())?;
            Request::Analyze { snapshot, sections, options, client, as_of }
        }
        "status" => Request::Status { snapshot: v["snapshot"].as_str().map(str::to_string) },
        "metrics" => {
            let format = match v["format"].as_str() {
                None | Some("json") => MetricsFormat::Json,
                Some("prom") => MetricsFormat::Prom,
                Some(other) => {
                    return Err(VnetError::BadRequest(format!(
                        "unknown metrics format '{other}' (json|prom)"
                    )))
                }
            };
            Request::Metrics { snapshot: v["snapshot"].as_str().map(str::to_string), format }
        }
        "watch" => {
            let interval_ms =
                optional_int(&v, "interval_ms", WATCH_MIN_INTERVAL_MS, WATCH_MAX_INTERVAL_MS)?
                    .unwrap_or(1_000);
            let frames = optional_int(&v, "frames", 1, WATCH_MAX_FRAMES)?.unwrap_or(5);
            Request::Watch {
                snapshot: v["snapshot"].as_str().map(str::to_string),
                interval_ms,
                frames,
            }
        }
        "shutdown" => Request::Shutdown,
        other => return Err(VnetError::BadRequest(format!("unknown cmd '{other}'"))),
    };
    Ok(request)
}

/// Serialize an error as a structured protocol reply. `rate_limited`
/// carries its retry hint as a machine-readable `retry_after_ms` field
/// next to the message — the serving-side analogue of a `Retry-After`
/// header, deterministic under the admission clock (golden-tested in
/// `tests/tests/serve_admission.rs`).
pub(crate) fn error_reply(e: &VnetError) -> String {
    if let VnetError::RateLimited { retry_after_ms } = e {
        return format!(
            "{{\"ok\":false,\"error\":{{\"code\":\"rate_limited\",\"message\":{},\"retry_after_ms\":{}}}}}",
            json_str(&e.to_string()),
            retry_after_ms,
        );
    }
    format!(
        "{{\"ok\":false,\"error\":{{\"code\":{},\"message\":{}}}}}",
        json_str(e.code()),
        json_str(&e.to_string()),
    )
}

/// JSON-escape a string through the serializer (one escaping policy
/// everywhere, so replies stay byte-stable).
pub(crate) fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Request {
        parse_request(line).unwrap()
    }

    #[test]
    fn parses_register_and_analyze() {
        let r = parse(r#"{"v":1,"cmd":"register","name":"a","dir":"/tmp/x"}"#);
        match r {
            Request::Register { name, source, churn, sybil } => {
                assert_eq!(name, "a");
                assert_eq!(source, RegisterSource::Dir("/tmp/x".into()));
                assert_eq!(churn, None);
                assert!(!sybil, "sybil defaults off");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let r = parse(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic","degrees"],"options":{"seed":7}}"#,
        );
        match r {
            Request::Analyze { snapshot, sections, options, client, as_of } => {
                assert_eq!(snapshot, "a");
                assert_eq!(sections, vec![Section::Basic, Section::Degrees]);
                assert_eq!(options.seed, 7);
                assert_eq!(options.lag_cap, AnalysisOptions::quick().lag_cap);
                assert_eq!(client, "", "missing client id maps to the anonymous bucket");
                assert_eq!(as_of, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn v1_envelope_round_trips() {
        match parse(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"client":"t1","as_of":3}"#,
        ) {
            Request::Analyze { client, as_of, .. } => {
                assert_eq!(client, "t1");
                assert_eq!(as_of, Some(3));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // The largest day that fits the field is served as itself.
        match parse(r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"as_of":4294967295}"#)
        {
            Request::Analyze { as_of, .. } => assert_eq!(as_of, Some(u32::MAX)),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn v1_rejects_unknown_keys_as_invalid_input() {
        let e = parse_request(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"sectons":["x"]}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "invalid_input");
        let e = parse_request(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"boostrap_reps":5}}"#,
        )
        .unwrap_err();
        assert_eq!(e.code(), "invalid_input", "misspelled option key must not be silent");
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        // A missing `v` gets the same reply as a wrong one, naming the v1
        // envelope.
        let unversioned = parse_request(r#"{"cmd":"status"}"#).unwrap_err();
        assert!(unversioned.to_string().contains(r#"{"v":1,"cmd":...}"#), "got {unversioned}");
        for line in [
            r#"{"v":2,"cmd":"status"}"#,
            r#"{"v":0,"cmd":"status"}"#,
            r#"{"v":"1","cmd":"status"}"#,
            r#"{"cmd":"analyze","snapshot":"a","sections":["basic"],"sectons":["x"]}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code(), "invalid_input", "line {line} gave {e}");
            assert_eq!(e.to_string(), unversioned.to_string(), "line {line}");
        }
    }

    #[test]
    fn parses_churn_knobs_and_bounds() {
        let r = parse(
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":30,"churn_seed":7,"churn_shock_day":10}"#,
        );
        match r {
            Request::Register { churn: Some(spec), .. } => {
                assert_eq!(spec.days, 30);
                assert_eq!(spec.seed, Some(7));
                assert_eq!(spec.shock_day, Some(10));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":0}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":100000}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_seed":7}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":30,"churn_shock_day":4294967306}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":"30"}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":30,"churn_seed":-7}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code(), "bad_request", "line {bad} gave {e}");
        }
    }

    #[test]
    fn parses_sybil_register_knob_and_detect() {
        let r = parse(
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":17,"sybil":true}"#,
        );
        match r {
            Request::Register { churn: Some(spec), sybil: true, .. } => {
                assert_eq!(spec.days, 17);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Sybil without a churn horizon is meaningless: the campaigns are
        // scheduled churn days.
        for bad in [
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","sybil":true}"#,
            r#"{"v":1,"cmd":"register","name":"a","scale":"small","churn_days":17,"sybil":"yes"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code(), "bad_request", "line {bad} gave {e}");
        }

        match parse(r#"{"v":1,"cmd":"detect","snapshot":"a"}"#) {
            Request::Detect { snapshot, client, as_of: None, top_k } => {
                assert_eq!(snapshot, "a");
                assert_eq!(client, "");
                assert_eq!(top_k, DETECT_DEFAULT_TOP_K);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"detect","snapshot":"a","client":"t1","as_of":5,"top_k":3}"#) {
            Request::Detect { client, as_of: Some(5), top_k: 3, .. } => {
                assert_eq!(client, "t1")
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            r#"{"v":1,"cmd":"detect"}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":0}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":100000}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","as_of":"soon"}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","as_of":4294967297}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code(), "bad_request", "line {bad} gave {e}");
        }
        // v1 strictness applies to the new command too.
        let e = parse_request(r#"{"v":1,"cmd":"detect","snapshot":"a","topk":5}"#).unwrap_err();
        assert_eq!(e.code(), "invalid_input");
    }

    #[test]
    fn parses_client_ids_and_shard_targets() {
        let r = parse(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"client":"tenant-7"}"#,
        );
        match r {
            Request::Analyze { client, .. } => assert_eq!(client, "tenant-7"),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"status"}"#) {
            Request::Status { snapshot: None } => {}
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"status","snapshot":"hot"}"#) {
            Request::Status { snapshot: Some(s) } => assert_eq!(s, "hot"),
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"metrics","snapshot":"hot"}"#) {
            Request::Metrics { snapshot: Some(s), format: MetricsFormat::Json } => {
                assert_eq!(s, "hot")
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_metrics_formats() {
        match parse(r#"{"v":1,"cmd":"metrics","format":"prom"}"#) {
            Request::Metrics { snapshot: None, format: MetricsFormat::Prom } => {}
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"metrics","format":"json"}"#) {
            Request::Metrics { format: MetricsFormat::Json, .. } => {}
            other => panic!("wrong parse: {other:?}"),
        }
        let e = parse_request(r#"{"v":1,"cmd":"metrics","format":"xml"}"#).unwrap_err();
        assert_eq!(e.code(), "bad_request");
    }

    #[test]
    fn parses_watch_with_defaults_and_bounds() {
        match parse(r#"{"v":1,"cmd":"watch"}"#) {
            Request::Watch { snapshot: None, interval_ms: 1_000, frames: 5 } => {}
            other => panic!("wrong parse: {other:?}"),
        }
        match parse(r#"{"v":1,"cmd":"watch","snapshot":"a","interval_ms":50,"frames":3}"#) {
            Request::Watch { snapshot: Some(s), interval_ms: 50, frames: 3 } => {
                assert_eq!(s, "a")
            }
            other => panic!("wrong parse: {other:?}"),
        }
        for bad in [
            r#"{"v":1,"cmd":"watch","interval_ms":1}"#,
            r#"{"v":1,"cmd":"watch","interval_ms":100000}"#,
            r#"{"v":1,"cmd":"watch","frames":0}"#,
            r#"{"v":1,"cmd":"watch","frames":1000000}"#,
            // Present but not a u64: refused, not replaced by the default.
            r#"{"v":1,"cmd":"watch","frames":-1}"#,
            r#"{"v":1,"cmd":"watch","frames":2.5}"#,
            r#"{"v":1,"cmd":"watch","interval_ms":"fast"}"#,
            r#"{"v":1,"cmd":"watch","interval_ms":-50}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.code(), "bad_request", "line {bad} gave {e}");
        }
        let e = parse_request(r#"{"v":1,"cmd":"watch","interval_ms":"fast"}"#).unwrap_err();
        assert!(e.to_string().contains("'interval_ms' must be an integer in [10, 60000]"), "{e}");
        let e = parse_request(r#"{"v":1,"cmd":"watch","frames":-1}"#).unwrap_err();
        assert!(e.to_string().contains("'frames' must be an integer in [1, 100000]"), "{e}");
    }

    #[test]
    fn rate_limited_reply_carries_the_retry_hint_field() {
        let reply = error_reply(&VnetError::RateLimited { retry_after_ms: 750 });
        assert_eq!(
            reply,
            "{\"ok\":false,\"error\":{\"code\":\"rate_limited\",\"message\":\"rate limited; retry after 750 ms\",\"retry_after_ms\":750}}"
        );
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["error"]["retry_after_ms"].as_u64(), Some(750));
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "not json",
            r#"{"v":1,"cmd":"fly"}"#,
            r#"{"v":1,"cmd":"register","name":"a"}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":[]}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":[3]}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"as_of":"soon"}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"as_of":4294967297}"#,
            // Option knobs outside their ranges: cast straight to `usize`,
            // the first two abort the process and the third panics a worker.
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"fig1_bins":100000000000}}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["degrees"],"options":{"bootstrap_reps":100000000000000}}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"fig1_bins":0}}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"seed":-1}}"#,
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"lag_cap":"40"}}"#,
            // `top_k` past the cap, however wide: 2^32 + 1 read `as usize`
            // is 1 on a 32-bit target.
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":4294967297}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":18446744073709551615}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":-3}"#,
            r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":"5"}"#,
        ] {
            let e = parse_request(line).unwrap_err();
            assert_eq!(e.code(), "bad_request", "line {line} gave {e}");
        }
        let e = parse_request(
            r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{"fig1_bins":0}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("'fig1_bins' must be an integer in [1, 10000]"), "{e}");
        let e = parse_request(r#"{"v":1,"cmd":"detect","snapshot":"a","top_k":4294967297}"#)
            .unwrap_err();
        assert!(e.to_string().contains("'top_k' must be an integer in [1, 10000]"), "{e}");
        let e = parse_request(r#"{"v":1,"cmd":"analyze","snapshot":"a","sections":["nope"]}"#)
            .unwrap_err();
        assert_eq!(e.code(), "unknown_section");
    }

    #[test]
    fn knob_ranges_accept_both_presets_and_reject_past_their_bounds() {
        let field = |o: &AnalysisOptions, key: &str| match key {
            "threads" => o.threads,
            "bootstrap_reps" => o.bootstrap_reps,
            "clustering_samples" => o.clustering_samples,
            "distance_sources" => o.distance_sources,
            "betweenness_pivots" => o.betweenness_pivots,
            "eigen_k" => o.eigen_k,
            "lanczos_steps" => o.lanczos_steps,
            "lag_cap" => o.lag_cap,
            "ngram_rows" => o.ngram_rows,
            "fig1_bins" => o.fig1_bins,
            other => panic!("no field for knob {other}"),
        };
        let analyze = |options: String| {
            parse_request(&format!(
                r#"{{"v":1,"cmd":"analyze","snapshot":"a","sections":["basic"],"options":{options}}}"#
            ))
        };
        for (preset, opts) in [("quick", AnalysisOptions::quick()), ("default", AnalysisOptions::default())] {
            for (key, ..) in KNOBS {
                let line = format!(r#"{{"preset":"{preset}","{key}":{}}}"#, field(&opts, key));
                match analyze(line) {
                    Ok(Request::Analyze { options, .. }) => {
                        assert_eq!(field(&options, key), field(&opts, key), "{preset}.{key}")
                    }
                    other => panic!("{preset}.{key} rejected: {other:?}"),
                }
            }
        }
        for (key, lo, hi, _) in KNOBS {
            for n in [lo, hi] {
                match analyze(format!(r#"{{"{key}":{n}}}"#)) {
                    Ok(Request::Analyze { options, .. }) => assert_eq!(field(&options, key) as u64, n),
                    other => panic!("{key}={n} rejected: {other:?}"),
                }
            }
            let outside = [lo.checked_sub(1), hi.checked_add(1)];
            for n in outside.into_iter().flatten() {
                let e = analyze(format!(r#"{{"{key}":{n}}}"#)).unwrap_err();
                assert_eq!(e.code(), "bad_request", "{key}={n}");
                assert!(e.to_string().contains(&format!("'{key}' must be an integer in [{lo}, {hi}]")));
            }
        }
    }

    #[test]
    fn error_reply_is_structured() {
        let reply = error_reply(&VnetError::UnknownSnapshot("x\"y".into()));
        let v: Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v["ok"].as_bool(), Some(false));
        assert_eq!(v["error"]["code"].as_str(), Some("unknown_snapshot"));
        assert!(v["error"]["message"].as_str().unwrap().contains("x\"y"));
    }
}
