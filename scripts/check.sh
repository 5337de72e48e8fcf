#!/usr/bin/env bash
# check.sh — the repo's CI gate, runnable locally. Referenced from
# README.md; run it before sending a PR.
#
#   scripts/check.sh          full gate: fmt, vet, build, race-enabled tests
#   scripts/check.sh -fast    skip the race detector (plain `go test ./...`)
#
# Both modes also vet and test the perfbench module.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "-fast" ]]; then
  fast=1
fi

# gofmt -l recurses from the repo root, so every .go file is covered —
# including files in newly added directories and files excluded by build
# constraints that `go list` would skip.
echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

# staticcheck runs when available (CI installs a pinned version; locally
# it is optional — `go install honnef.co/go/tools/cmd/staticcheck@2023.1.7`
# to match CI). Gated on command -v so an offline checkout still passes.
echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipped (CI runs it pinned)"
fi

echo "==> go build ./..."
go build ./...

if [[ "$fast" == 1 ]]; then
  echo "==> go test ./... (fast mode, no race detector)"
  go test ./...
  # The engine registry, serving layer, cluster peer layer, load harness,
  # observation/retrain loop, predictor and tile index (written by Add
  # while serving reads it) are the concurrency-critical surface: they
  # stay race-checked even in fast mode. The predictor and tile packages
  # run as a second command: their race run is CPU-bound for over a
  # minute, and the load harness's cluster tests assert on timing.
  echo "==> go test -race ./internal/predict ./internal/serve ./internal/cluster ./internal/loadgen ./internal/observe"
  go test -race ./internal/predict ./internal/serve ./internal/cluster ./internal/loadgen ./internal/observe
  echo "==> go test -race ./internal/tile ./internal/core"
  go test -race ./internal/tile ./internal/core
else
  echo "==> go test -race ./..."
  go test -race ./...

  # Kill-a-member e2e: a real three-process cluster loses a member to
  # SIGKILL mid-traffic and must fail over, evict, and readmit — the
  # self-healing contract exercised against real processes, not httptest.
  echo "==> cluster kill-a-member e2e (scripts/e2e_cluster.sh)"
  bash scripts/e2e_cluster.sh

  # Fleet-planner e2e: a /v2/plan what-if sweep fanned across a 2-member
  # self-cluster must complete with every cell evaluated exactly once and
  # a seed-stable ranking — the planner's async-job contract, end to end.
  echo "==> fleet planner e2e (scripts/plan_e2e.sh)"
  bash scripts/plan_e2e.sh
fi

# The benchmark is its own module (perfbench/go.mod), which `./...` from
# the repo root does not reach. Vet and test it here, so an internal API
# change that breaks the benchmark fails CI instead of the next benchmark
# run.
echo "==> perfbench module: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

# Docs gate: every versioned route the code actually serves must be
# documented in docs/API.md — adding an endpoint without documenting it
# fails CI here. The route list is derived from the source, not
# maintained by hand: serve registers routes via mux.HandleFunc literals,
# and the cluster layer declares its /v2/cluster/* paths as string
# literals in non-test files.
echo "==> docs gate (API routes vs docs/API.md)"
missing=0
routes=$(
  {
    grep -ho 'mux.HandleFunc("/v[12][^"]*"' internal/serve/http.go | sed 's/mux.HandleFunc("//; s/"$//'
    grep -rho --include='*.go' --exclude='*_test.go' '"/v[0-9]/cluster/[^"]*"' internal/cluster | tr -d '"'
  } | sort -u
)
for route in $routes; do
  if ! grep -q -- "$route" docs/API.md; then
    echo "route $route handled in the code but missing from docs/API.md" >&2
    missing=1
  fi
done
if ! grep -q -- "/metrics" docs/API.md; then
  echo "route /metrics handled in internal/serve/http.go but missing from docs/API.md" >&2
  missing=1
fi
if [[ "$missing" != 0 ]]; then
  exit 1
fi

# Benchmark smoke run: one iteration each, so bit-rotted benchmarks (stale
# APIs, broken fixtures) fail CI without CI paying for real measurement.
echo "==> benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x ./internal/mat ./internal/core >/dev/null
go test -run '^$' -bench 'EngineDispatch' -benchtime=1x ./internal/predict >/dev/null
go test -run '^$' -bench 'ObserveIngest' -benchtime=1x ./internal/observe >/dev/null
go test -run '^$' -bench 'Serve|ShardedThroughput' -benchtime=1x . >/dev/null

# Loadgen smoke sweep: two short steps against a self-served roofline
# target, generous SLO — exercises the whole harness path (CLI flags,
# in-process target, sweep loop, JSON report) in about a second without
# measuring anything. scripts/bench.sh --sweep is the real measurement.
echo "==> loadgen smoke sweep"
smoke_out=$(mktemp)
cluster_smoke_out=$(mktemp)
trap 'rm -f "$smoke_out" "$cluster_smoke_out"' EXIT
go run ./cmd/neusight loadgen -self roofline -sweep 100:100:200 \
  -step-duration 300ms -slo-errors 0.5 -seed 7 -out "$smoke_out" 2>/dev/null
python3 - "$smoke_out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
if report.get("kind") != "neusight-loadgen":
    raise SystemExit(f"check.sh: smoke sweep report kind {report.get('kind')!r}")
steps = (report.get("sweep") or {}).get("steps") or []
if not steps or not any(s.get("succeeded", 0) > 0 for s in steps):
    raise SystemExit("check.sh: smoke sweep served no successful requests")
EOF

# Cluster-sweep smoke: two short steps fanned across an in-process
# 2-member cluster — exercises ring discovery, the load split, per-member
# aggregation, and the merged report in about a second. scripts/bench.sh
# --cluster-sweep is the real measurement.
echo "==> loadgen cluster-sweep smoke (2-member in-process cluster)"
go run ./cmd/neusight loadgen -self roofline -self-cluster 2 -sweep 100:100:200 \
  -step-duration 250ms -cooldown 100ms -slo-errors 0.5 -seed 7 \
  -out "$cluster_smoke_out" 2>/dev/null
python3 - "$cluster_smoke_out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
sweep = report.get("cluster_sweep") or {}
steps = sweep.get("steps") or []
if not steps or not any(s.get("succeeded", 0) > 0 for s in steps):
    raise SystemExit("check.sh: cluster smoke sweep served no successful requests")
if not sweep.get("knee"):
    raise SystemExit("check.sh: cluster smoke sweep found no knee under a 0.5 error SLO")
if not any((s.get("members") or []) for s in steps):
    raise SystemExit("check.sh: cluster smoke sweep has no per-member breakdown")
EOF

echo "OK"
