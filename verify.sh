#!/usr/bin/env bash
# verify.sh — the canonical tier-1 entry point: everything CI (and a
# human before pushing) runs, in dependency order. Exits non-zero on the
# first failure.
#
#   ./verify.sh             # full verification
#   ./verify.sh -short      # skip the -race stress tests' slow bodies
#   ./verify.sh -race-pkgs  # print the race-tested packages (make race)
set -euo pipefail
cd "$(dirname "$0")"

# The concurrency-bearing packages run under -race: the one list, read
# by `make race` too.
race_pkgs=(./internal/parallel/... ./internal/stream/... ./internal/cn/...
    ./internal/cache/... ./internal/exec/... ./internal/lca/... ./internal/obs/...
    ./internal/resilience/... ./internal/core/... ./internal/server/...
    ./internal/analysis/... ./internal/plan/... ./internal/shard/...)

short=""
case "${1:-}" in
-short) short="-short" ;;
-race-pkgs)
    echo "${race_pkgs[*]}"
    exit 0
    ;;
esac

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test $short ./...

echo "==> go test -race (concurrency-bearing packages)"
go test -race $short "${race_pkgs[@]}"

echo "==> observability overhead gate (E38 budget: 5%)"
go run ./cmd/benchrunner -obs-overhead

echo "==> warm bind share gate (E39 budget: 35%)"
go run ./cmd/benchrunner -bind-gate

echo "==> shard identity gate (E40: coordinator answers byte-identical to single engine)"
go run ./cmd/benchrunner -shard-gate

echo "==> kwslint -json ./... (report: kwslint.json)"
go run ./cmd/kwslint -json ./... > kwslint.json

echo "verify: OK"
