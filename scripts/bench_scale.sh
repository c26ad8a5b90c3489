#!/usr/bin/env bash
# Record BENCH_par.json at the medium scale tier (~60k nodes / ~5M edges,
# see docs/SCALING.md) — run-if-missing: the recorded baseline is a
# checked-in artefact, so this script only re-measures when the file is
# absent (delete it to re-record, e.g. after moving to different
# hardware). The `cores` field is always honest: it is read from nproc at
# recording time, and a single-core container can only show ~1.0x
# speedups by construction.
#
# BENCH_temporal.json is recorded by the same run-if-missing rule: the
# incremental-vs-scratch speedup of the temporal engine per churn day
# (the bin exits nonzero on any incremental/scratch divergence, so a
# recorded baseline is also a conformance witness).
#
#   scripts/bench_scale.sh            # records BENCH_par.json / BENCH_temporal.json if missing
#   FORCE=1 scripts/bench_scale.sh    # re-record unconditionally
set -euo pipefail
cd "$(dirname "$0")/.."

temporal_out="BENCH_temporal.json"
if [[ -f "$temporal_out" && "${FORCE:-0}" != "1" ]]; then
    echo "$temporal_out already recorded (FORCE=1 to re-record); skipping."
else
    echo "recording temporal incremental-vs-scratch sweep ..."
    cargo run --release -q -p vnet-bench --bin temporal_bench -- \
        --nodes 8000 --days 30 --seed 7 --threads 2 --out "$temporal_out"
fi

out="BENCH_par.json"
if [[ -f "$out" && "${FORCE:-0}" != "1" ]]; then
    echo "$out already recorded (FORCE=1 to re-record); nothing to do."
    exit 0
fi

command -v jq >/dev/null || { echo "error: jq required" >&2; exit 1; }
cores="$(nproc)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

echo "recording medium-scale thread sweep on $cores core(s) ..."
for t in 1 2 4; do
    echo "--threads $t ..."
    cargo run --release -q -p vnet-bench --bin repro -- \
        --all --scale medium --threads "$t" --bootstrap-reps 30 \
        --manifest "$tmpdir/m$t.json" >"$tmpdir/t$t.log" 2>&1
done

# Per-stage wall micros from the manifest span tree (repro computes each
# section once per run, so each stage has one span; a stage that did not
# run reads 0), plus the memory gauges the streaming build exports.
jq -n --argjson cores "$cores" \
    --slurpfile m1 "$tmpdir/m1.json" \
    --slurpfile m2 "$tmpdir/m2.json" \
    --slurpfile m4 "$tmpdir/m4.json" '
    def stage_wall($m; $span):
        [$m.stages[] | select(.name == $span) | .wall_micros] | add // 0;
    # Historical BENCH_par.json keys -> manifest span names. The
    # separation stage is one span (the BFS *is* the stage); the rest are
    # leaf spans under their section.
    def stages($m):
        [{key: "degrees.bootstrap",      span: "analysis.degrees.bootstrap"},
         {key: "eigen.bootstrap",        span: "analysis.eigen.bootstrap"},
         {key: "eigen.lanczos",          span: "analysis.eigen.lanczos"},
         {key: "separation.bfs",         span: "analysis.separation"},
         {key: "centrality.betweenness", span: "analysis.centrality.betweenness"},
         {key: "centrality.pagerank",    span: "analysis.centrality.pagerank"}]
        | map({key: .key, value: stage_wall($m; .span)}) | from_entries;
    def block($m; $ref):
        stages($m) as $s | stages($ref) as $r |
        {
            stage_wall_micros: $s,
            total_wall_micros: $m.wall_total_micros,
            speedup_vs_serial:
                ($s | with_entries(.value =
                    (if .value > 0 then (($r[.key] / .value) * 1000 | round / 1000) else 1.0 end)))
        };
    {
        benchmark: "vnet-par thread scaling — repro --all --scale medium --bootstrap-reps 30",
        cores: $cores,
        note: ("Recorded at the medium tier (60k nodes / ~5.2M edges, docs/SCALING.md) on \($cores) core(s); single run per thread count, microseconds. On cores=1 every stage shows ~1.0x by construction — the deterministic decomposition (par.tasks, chunk grains) is core-count-independent; re-record on a multi-core host (delete this file and run scripts/bench_scale.sh) for real speedups."),
        memory: {
            synth_peak_arena_bytes: ($m1[0].gauges["graph.synth_peak_arena_bytes"] // 0),
            synth_csr_bytes: ($m1[0].gauges["graph.synth_csr_bytes"] // 0),
            dataset_csr_bytes: ($m1[0].gauges["graph.csr_bytes"] // 0),
            peak_rss_bytes: ($m1[0].gauges["mem.peak_rss_bytes"] // 0)
        },
        threads: {
            "1": block($m1[0]; $m1[0]),
            "2": block($m2[0]; $m1[0]),
            "4": block($m4[0]; $m1[0])
        }
    }' >"$out"

echo "wrote $out"
jq '{cores, memory, total: [.threads[] | .total_wall_micros]}' "$out"
