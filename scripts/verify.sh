#!/usr/bin/env bash
# Repo verification lanes, fastest first:
#
#   scripts/verify.sh fast    twittersim unit tests only (~seconds) —
#                             the fault-injection + crawler fast lane
#   scripts/verify.sh obs     observability lane: vnet-obs unit tests +
#                             the manifest-determinism golden tests
#   scripts/verify.sh obs-bench
#                             metrics-store lane: the snapshot-determinism /
#                             Prometheus / watch / self-monitor battery,
#                             the obs-scoped clippy wall, and the
#                             obs_overhead regression gate (an interned
#                             handle must beat a by-name write at >= 2
#                             recording threads)
#   scripts/verify.sh par     parallelism lane: vnet-par unit tests, in
#                             debug and again in release (the fork path's
#                             panic, nested-fork and concurrent-caller
#                             tests on optimized code), the
#                             cross-thread-count determinism battery, and
#                             the par-scoped clippy wall (no unwrap)
#   scripts/verify.sh algos   projection and eigensolver lane: the
#                             vnet-graph, vnet-algos and vnet-spectral
#                             unit batteries (Lanczos semi-orthogonality
#                             included; vnet-spectral's also in release,
#                             so its kernels' bit-identity proptests
#                             check the optimized code), the bit pins of
#                             every undirected-projection consumer, the
#                             brute-force reference proptests (the
#                             dense-Jacobi Lanczos reference among them),
#                             the release-profile default-tier eigen
#                             fidelity test and bit pin, and the
#                             algos/spectral/core clippy wall (no unwrap)
#   scripts/verify.sh powerlaw
#                             power-law lane: the vnet-stats and
#                             vnet-powerlaw unit batteries, the bit pins
#                             of the Vuong rows, and the stats/powerlaw
#                             clippy wall (no unwrap)
#   scripts/verify.sh serve   service lane: vnet-serve and wire-parser
#                             unit tests + the loopback wire-protocol,
#                             hostile-input, wire-latency, concurrency,
#                             admission and shard-isolation batteries (the
#                             shard battery in both build profiles), with
#                             the serve-scoped clippy wall
#   scripts/verify.sh graph-scale
#                             scaling lane: the StreamingBuilder unit +
#                             proptest battery, the peak-budget and
#                             thread-count battery (including the
#                             release-profile medium-tier golden header),
#                             and the graph-scoped clippy wall
#   scripts/verify.sh temporal
#                             temporal lane: the vnet-temporal unit battery
#                             (overlay/counter/dynamic-PageRank bit-identity),
#                             the churn-replay + incremental-vs-scratch
#                             integration battery, the as_of wire battery
#                             (v1 envelope, unversioned-line rejection,
#                             churn oracle), and the temporal-scoped
#                             clippy wall
#   scripts/verify.sh serve-soak
#                             soak lane: the deterministic in-process
#                             open-loop soak test plus a small-rate
#                             serve_load run (seeded arrivals, two
#                             shards, admission on); fails on oracle
#                             divergence, accounting drift, undrained
#                             queues, or leaked connections
#   scripts/verify.sh sybil   adversarial lane: the vnet-detect unit
#                             battery, the planted-workload detection
#                             battery (recall >= 0.9 floor, thread-count
#                             byte-invariance, label round-trip), the
#                             detect wire battery (with the elite_core
#                             refusal on a sybil shard), and the
#                             detect-scoped clippy wall
#   scripts/verify.sh         tier-1: release build + full quiet test suite
#   scripts/verify.sh full    tier-1 plus the par, algos, powerlaw, serve,
#                             temporal, serve-soak, sybil, obs-bench and
#                             graph-scale lanes,
#                             workspace clippy and rustdoc with warnings
#                             denied, a compile check of the criterion
#                             benches, and the grep lints that keep deleted
#                             APIs deleted (no *_observed entrypoint, no
#                             #[deprecated] item, no unversioned-envelope
#                             support, see the migration table in
#                             docs/API.md; no second CSR freeze, PageRank
#                             loop, rate window, undirected merge or
#                             sorted intersection; no newline written on
#                             its own after a wire line; no whole-dataset
#                             hash or base-dataset clone in serve, no
#                             FNV-1a outside vnet-obs, no per-call thread
#                             spawn in vnet-par, no row threshold on
#                             the Lanczos pool, no second metrics
#                             store: no merge step, no capacity knob,
#                             and no second section dispatcher: no
#                             fn sec_* in crates/core/src/, no
#                             run_analysis( call in repro; one fill
#                             path in serve: no flight table or locked Lru
#                             outside the memo's module, one
#                             executor.submit( in server.rs; and one
#                             portmanteau pass: no max_p_over_lags, no
#                             ljung_box( or box_pierce( call in
#                             crates/core/src/), and clippy on the
#                             integration-test targets
set -euo pipefail
cd "$(dirname "$0")/.."

lane="${1:-tier1}"

case "$lane" in
fast)
    cargo test -q -p vnet-twittersim
    ;;
obs)
    cargo test -q -p vnet-obs
    cargo test -q -p vnet-integration-tests --test obs_manifest
    ;;
obs-bench)
    cargo test -q -p vnet-integration-tests --test obs_telemetry
    # Metric recording sits on the request hot path; the same "no
    # unwrap, no lock across a wait" wall the serve crate holds applies
    # to the recording layer it calls into.
    cargo clippy -p vnet-obs --no-deps -- -D warnings -D clippy::await_holding_lock -D clippy::unwrap_used
    cargo run --release -q -p vnet-bench --bin obs_overhead -- --ops 200000 --check >/dev/null
    ;;
par)
    cargo test -q -p vnet-par
    # Release profile too: the fork path's panic, nested-fork and
    # concurrent-caller tests check the optimized code every stage runs.
    cargo test -q --release -p vnet-par
    cargo test -q -p vnet-integration-tests --test par_determinism
    # Every analysis stage forks through this crate, on serve worker
    # threads too; it holds the same no-unwrap wall as the serve crate.
    cargo clippy -p vnet-par --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
algos)
    cargo test -q -p vnet-graph -p vnet-algos -p vnet-spectral
    # Release profile too: the bit-identity proptests of the block update
    # and the grouped bisection check the optimized code the benchmark runs.
    cargo test -q --release -p vnet-spectral
    cargo test -q -p vnet-integration-tests --test projection_pin
    cargo test -q -p vnet-integration-tests --test algorithm_references
    # Release profile: the default-tier eigen fit against the references
    # recorded with full reorthogonalization is too slow for debug.
    cargo test -q -p vnet-integration-tests --release --test eigen_fidelity -- --include-ignored
    # Clustering, k-core and the Laplacian run on serve worker threads on
    # every analyze miss; they hold the same no-unwrap wall as the serve
    # crate.
    cargo clippy -p vnet-algos -p vnet-spectral -p verified-net --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
powerlaw)
    cargo test -q -p vnet-stats -p vnet-powerlaw
    cargo test -q -p vnet-integration-tests --test vuong_pin
    # The degrees and eigen fits run on serve worker threads on every
    # analyze miss; they hold the same no-unwrap wall as the serve crate.
    cargo clippy -p vnet-stats -p vnet-powerlaw --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
serve)
    # Unit tests, the shard registry's among them: every churn day of a
    # sybil shard must fingerprint as its snapshot with that day's graph.
    cargo test -q -p vnet-serve
    # The vendored JSON parser reads every request line before admission.
    cargo test -q -p serde_json
    cargo test -q -p vnet-integration-tests --test serve_protocol
    # A test binary of its own: at a stack overflow it aborts alone.
    cargo test -q -p vnet-integration-tests --test serve_hostile_input
    # Client-timed round trips: a reply that waits for a delayed ACK shows
    # only on the client's clock.
    cargo test -q -p vnet-integration-tests --test serve_wire_latency
    cargo test -q -p vnet-integration-tests --test serve_concurrency
    cargo test -q -p vnet-integration-tests --test serve_admission
    cargo test -q -p vnet-integration-tests --test serve_shards
    # The saturation test races a status poll against slow jobs, and
    # release builds run those jobs ~5x faster: hold it in both profiles.
    cargo test -q -p vnet-integration-tests --release --test serve_shards
    # The service runs analyses on shared worker threads: a panic or a
    # lock held across a wait point takes down more than one request, so
    # the serve crate holds a stricter wall than the workspace default.
    cargo clippy -p vnet-serve --no-deps -- -D warnings -D clippy::await_holding_lock -D clippy::unwrap_used
    ;;
graph-scale)
    cargo test -q -p vnet-graph
    # Release profile: the --include-ignored run covers the ~5M-edge
    # medium-tier golden header, which is too slow for the debug tier.
    cargo test -q -p vnet-integration-tests --release --test graph_scale -- --include-ignored
    # The CSR arenas back every downstream kernel; construction code gets
    # the same no-unwrap wall as the serving hot path.
    cargo clippy -p vnet-graph --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
temporal)
    cargo test -q -p vnet-temporal
    cargo test -q -p vnet-integration-tests --test temporal_replay
    cargo test -q -p vnet-integration-tests --test serve_asof
    # The overlay/counter kernels back the serve as_of path; they hold
    # the same no-unwrap wall as the rest of the request hot path.
    cargo clippy -p vnet-temporal --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
serve-soak)
    cargo test -q -p vnet-integration-tests --test serve_soak
    cargo run --release -q -p vnet-bench --bin serve_load -- --rate 400 --requests 1000 --seed 7
    ;;
sybil)
    cargo test -q -p vnet-detect
    # The calibrated planted-recall floor (>= 0.9) and the byte-identical
    # ranking / P-R block across thread counts are asserted inside this
    # battery.
    cargo test -q -p vnet-integration-tests --test sybil_detection
    # The detect wire battery, and the elite_core refusal on a sybil shard
    # (planted accounts have no profiles: `inconsistent`, not a panic).
    cargo test -q -p vnet-integration-tests --test serve_detect
    # Detection scores run on the serve request path; same wall as the
    # rest of the hot path.
    cargo clippy -p vnet-detect --no-deps -- -D warnings -D clippy::unwrap_used
    ;;
tier1)
    cargo build --release
    cargo test -q
    ;;
full)
    cargo build --release
    cargo test -q
    "$0" par
    "$0" algos
    "$0" powerlaw
    "$0" serve
    "$0" temporal
    "$0" serve-soak
    "$0" sybil
    "$0" obs-bench
    "$0" graph-scale
    cargo clippy --workspace -- -D warnings
    # The workspace wall above skips test targets; the integration tests
    # are linted on their own.
    cargo clippy -p vnet-integration-tests --tests -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    # EXPERIMENTS.md quotes the criterion benches' ablations; no lane runs
    # them, so at least keep them compiling.
    cargo check -q -p vnet-bench --benches
    # The 0.2 API contract: observed/plain function splits are dead and
    # the one-release compat shims were deleted with the v1 envelope —
    # no `#[deprecated]` item and no *_observed entrypoint may reappear
    # anywhere in crates/ (docs/API.md keeps the migration table).
    if grep -rn --include='*.rs' -E 'pub fn [a-z_0-9]*_observed' crates/; then
        echo "error: new *_observed public function in crates/" >&2
        echo "       (use an AnalysisCtx parameter instead; see docs/API.md)" >&2
        exit 1
    fi
    if grep -rn --include='*.rs' '#\[deprecated' crates/; then
        echo "error: deprecated shim reintroduced in crates/" >&2
        echo "       (delete the old name; see the migration table in docs/API.md)" >&2
        exit 1
    fi
    # The unversioned request envelope was deleted: a line without "v":1
    # is refused, so its deprecation note and counter stay gone too.
    if grep -rn --include='*.rs' -E 'DEPRECATION_NOTE|legacy_requests' crates/ tests/ examples/; then
        echo "error: unversioned-envelope support reintroduced" >&2
        echo "       (every request carries {\"v\":1,...}; see the migration table in docs/API.md)" >&2
        exit 1
    fi
    # One implementation of each: GraphBuilder freezes through
    # StreamingBuilder, PageRank has one power iteration (vnet-algos), and
    # twittersim charges every endpoint through RateWindow.
    if grep -rn --include='*.rs' -E 'generate_staged|dynamic_pagerank_impl' crates/ tests/ examples/ \
        || grep -rn --include='*.rs' -E 'struct Bucket\b' crates/twittersim/; then
        echo "error: a deleted second implementation reappeared" >&2
        echo "       (freeze through StreamingBuilder, iterate with vnet_algos::pagerank::power_iteration," >&2
        echo "        charge through vnet_twittersim::RateWindow)" >&2
        exit 1
    fi
    # One undirected projection: every out ∪ in merge and out ∩ in
    # intersection goes through vnet_graph::undirected.
    if grep -rn --include='*.rs' -E 'fn (undirected_neighbors|merge_sorted_unique_into|merged_undirected|sorted_intersection_len)\b' \
        crates/ tests/ examples/; then
        echo "error: a private undirected merge or sorted intersection reappeared" >&2
        echo "       (use vnet_graph::{Undirected, union_sorted, for_each_common, common_count})" >&2
        exit 1
    fi
    # One projection per graph: DiGraph::undirected builds it on first use
    # and holds it, so only vnet-graph and the criterion benches that time
    # the build call Undirected::from_digraph. The unread graph surface
    # and the unread centralities stay deleted.
    if grep -rn --include='*.rs' -F 'Undirected::from_digraph' crates/ tests/ examples/ \
        | grep -v -E '^crates/(graph/src|bench/benches)/'; then
        echo "error: an undirected projection built outside vnet-graph" >&2
        echo "       (read the graph's held view through DiGraph::undirected)" >&2
        exit 1
    fi
    if grep -rn --include='*.rs' -E 'NodeTable|write_dot|write_graphml|harmonic_closeness|HitsResult' \
        crates/ tests/ examples/; then
        echo "error: a deleted graph export, node table or centrality reappeared" >&2
        echo "       (nothing in the workspace reads them; see DESIGN.md's extension table)" >&2
        exit 1
    fi
    # A wire line and its newline leave in one write: a newline written on
    # its own waits under Nagle for the peer's delayed ACK (~40 ms).
    if grep -rn --include='*.rs' -F 'write_all(b"\n")' crates/ tests/ examples/; then
        echo "error: a newline written on its own after a wire line" >&2
        echo "       (append '\\n' to the line and write both at once; see docs/API.md)" >&2
        exit 1
    fi
    # A churn day is its snapshot with another graph: serve hashes a whole
    # dataset once, in SnapshotData::new at registration, and a day only
    # through the snapshot's DatasetDigest.
    if grep -rn --include='*.rs' -F -e '..base.dataset.clone()' -e 'dataset.fingerprint()' crates/serve/src/; then
        echo "error: serve clones a base dataset or hashes a whole dataset on the request path" >&2
        echo "       (build days with SnapshotData::with_graph; hash once in SnapshotData::new)" >&2
        exit 1
    fi
    # One FNV-1a: every fingerprint goes through vnet_obs (Fnv1a,
    # fingerprint_bytes, fingerprint_str).
    if grep -rn --include='*.rs' -i -E 'cbf2_?9ce4_?8422_?2325' crates/ tests/ examples/ \
        | grep -v '^crates/obs/src/'; then
        echo "error: an FNV-1a offset basis outside crates/obs/src/" >&2
        echo "       (hash through vnet_obs::{Fnv1a, fingerprint_bytes, fingerprint_str})" >&2
        exit 1
    fi
    # A fork wakes parked helpers instead of spawning threads, so the
    # Lanczos iteration runs on the context's pool at every size.
    if grep -rn --include='*.rs' -F 'std::thread::scope' crates/par/src/ \
        || grep -rn --include='*.rs' -E 'POOL_MIN_ROWS|iteration_pool' crates/spectral/src/; then
        echo "error: a per-call thread spawn in vnet-par, or a row threshold on the Lanczos pool" >&2
        echo "       (fork through vnet-par's parked helpers; lanczos_topk uses ctx.pool())" >&2
        exit 1
    fi
    # One metrics store: by-name writes and interned handles land in the
    # same series of vnet_obs::Telemetry, and Registry is only a snapshot
    # of it — no merge step, no capacity, no NaN to reject.
    if grep -rn --include='*.rs' -E 'attach_telemetry|sync_telemetry|merge_into|set_(counter|gauge|histogram)_key|Telemetry::with_capacity|DEFAULT_(COUNTERS|GAUGES|HISTOGRAM_SLOTS)|TELEMETRY_STRIPES|rejected_observations' \
        crates/ tests/ examples/; then
        echo "error: a second metrics store, a merge step or a capacity knob reappeared" >&2
        echo "       (write by name through Obs or through handles from obs.telemetry(); see docs/API.md)" >&2
        exit 1
    fi
    # One battery pass: run_analysis_section is the only section
    # dispatcher, and repro renders every experiment and --markdown from
    # the section reports it computed once, never from a second battery.
    if grep -n -F 'run_analysis(' crates/bench/src/bin/repro.rs \
        || grep -rn --include='*.rs' -E 'fn sec_' crates/core/src/; then
        echo "error: a second section dispatcher or a second battery run in repro reappeared" >&2
        echo "       (compute sections through run_analysis_section; assemble with AnalysisReport::from_sections)" >&2
        exit 1
    fi
    # One fill path in serve: the section, day-graph and detect caches are
    # each a Memo (crates/serve/src/cache.rs), the only code that locks an
    # Lru or opens a flight; analyze and detect share one executor.submit(.
    if grep -rn --include='*.rs' -E 'FlightMap|Role::(Leader|Follower)|Mutex<Lru' crates/serve/src/ \
        | grep -v -E '^crates/serve/src/cache(\.rs|/)' \
        || [ "$(grep -c -F 'executor.submit(' crates/serve/src/server.rs)" -gt 1 ]; then
        echo "error: a second cache-fill path or a second request path reappeared in vnet-serve" >&2
        echo "       (fill through Memo::get_or_fill; run analyze and detect through handle_job)" >&2
        exit 1
    fi
    # One portmanteau pass: activity reads every horizon's maximum p from
    # vnet_timeseries::max_p_values, which computes the autocorrelations
    # once, instead of testing horizon by horizon.
    if grep -rn --include='*.rs' -F 'max_p_over_lags' crates/ tests/ examples/ \
        || grep -rn --include='*.rs' -E '\b(ljung_box|box_pierce)\(' crates/core/src/; then
        echo "error: a per-horizon portmanteau loop reappeared" >&2
        echo "       (take the maxima over all horizons from vnet_timeseries::max_p_values)" >&2
        exit 1
    fi
    ;;
*)
    echo "usage: scripts/verify.sh [fast|obs|obs-bench|par|algos|powerlaw|serve|graph-scale|temporal|serve-soak|sybil|tier1|full]" >&2
    exit 2
    ;;
esac
